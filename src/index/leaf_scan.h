// The leaf loop of the summarized trees (DSTree, iSAX2+, SFA trie): one
// bulk-charged leaf read, then every member series either skipped on its
// in-memory summary bound or verified against the worker's answer sink.
// Shared by their core::TreeSearch policies.
#ifndef HYDRA_INDEX_LEAF_SCAN_H_
#define HYDRA_INDEX_LEAF_SCAN_H_

#include <span>
#include <type_traits>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/types.h"
#include "io/counted_storage.h"
#include "transform/isax.h"

namespace hydra::index {

/// The member bound of a leaf without per-series summaries: every member
/// is verified.
struct NoMemberBound {};

/// Member bound from full-resolution iSAX words: `words` holds
/// `table->segments()` symbols per series id (the iSAX2+ and DSTree
/// summary layout), bounded through the query's IsaxQueryTable.
struct IsaxMemberBound {
  const transform::IsaxQueryTable* table;
  const uint8_t* words;

  double operator()(core::SeriesId id) const {
    return table->LowerBoundSq(words +
                               static_cast<size_t>(id) * table->segments());
  }
};

/// Verifies the series `ids` of one leaf for a core::TreeWorker `w`: charges
/// the leaf as one random access plus contiguous reads (the paper's tree
/// I/O model), then computes each early-abandoning distance against the
/// sink's live bound, stopping when the raw-series budget fires.
///
/// With a `member_lb(id)` (a squared-distance lower bound from an
/// in-memory summary), each member first costs one lower-bound computation
/// and is skipped without a raw read when `W::MemberAdmits` rejects its
/// bound — the sink's own admission rule, so a skipped member could never
/// have entered the answer and the answer and the bsf trajectory are those
/// of the unfiltered loop. Skipped members spend no raw budget.
template <typename W, typename MemberBound = NoMemberBound>
void ScanLeaf(std::span<const core::SeriesId> ids, const core::Dataset* data,
              const core::QueryOrder& order, const W& w,
              const MemberBound& member_lb = {}) {
  core::SearchStats& stats = w.stats();
  io::ChargeLeafRead(ids.size(), data->length() * sizeof(core::Value),
                     &stats);
  io::CountedStorage raw(data);
  for (const core::SeriesId id : ids) {
    if (w.RawCapReached()) return;
    if constexpr (!std::is_same_v<MemberBound, NoMemberBound>) {
      ++stats.lower_bound_computations;
      if (!w.MemberAdmits(member_lb(id))) continue;
    }
    const double d =
        order.Distance(raw.ReadPrecharged(id, &stats), w.sink().Bound());
    ++stats.distance_computations;
    ++stats.raw_series_examined;
    w.sink().Offer(id, d);
  }
}

}  // namespace hydra::index

#endif  // HYDRA_INDEX_LEAF_SCAN_H_
