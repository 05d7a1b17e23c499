// The leaf loop of the summarized trees (DSTree, iSAX2+, SFA trie): one
// bulk-charged leaf read, then every member series verified against the
// worker's answer sink. Shared by their core::TreeSearch policies.
#ifndef HYDRA_INDEX_LEAF_SCAN_H_
#define HYDRA_INDEX_LEAF_SCAN_H_

#include <span>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/types.h"
#include "io/counted_storage.h"

namespace hydra::index {

/// Verifies the series `ids` of one leaf for a core::TreeWorker `w`: charges
/// the leaf as one random access plus contiguous reads (the paper's tree
/// I/O model), then computes each early-abandoning distance against the
/// sink's live bound, stopping when the raw-series budget fires.
template <typename W>
void ScanLeaf(std::span<const core::SeriesId> ids, const core::Dataset* data,
              const core::QueryOrder& order, const W& w) {
  core::SearchStats& stats = w.stats();
  io::ChargeLeafRead(ids.size(), data->length() * sizeof(core::Value),
                     &stats);
  io::CountedStorage raw(data);
  for (const core::SeriesId id : ids) {
    if (w.RawCapReached()) return;
    const double d =
        order.Distance(raw.ReadPrecharged(id, &stats), w.sink().Bound());
    ++stats.distance_computations;
    ++stats.raw_series_examined;
    w.sink().Offer(id, d);
  }
}

}  // namespace hydra::index

#endif  // HYDRA_INDEX_LEAF_SCAN_H_
