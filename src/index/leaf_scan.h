// The leaf loop of the summarized trees (DSTree, iSAX2+, SFA trie): one
// bulk-charged leaf read, a filter pass that keeps the members whose
// in-memory summary bound may still enter the answer, then the shared
// refine loop (core/refine.h) over those survivors only. Shared by their
// core::TreeSearch policies, with the id partition check their loaders and
// builds apply to the leaves.
#ifndef HYDRA_INDEX_LEAF_SCAN_H_
#define HYDRA_INDEX_LEAF_SCAN_H_

#include <span>
#include <type_traits>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/refine.h"
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

/// The calling thread's scratch for the survivors of one leaf's member
/// filter (reused across leaves and queries; a traversal worker thread
/// gets its own).
inline core::Candidates& ScratchLeafSurvivors() {
  thread_local core::Candidates survivors;
  return survivors;
}

/// The refine policy of a tree leaf (core::RefineLoop) for a
/// core::TreeWorker `w`: the sink's own admission rule, its live bound,
/// the raw-series budget, and reads precharged by ChargeLeafRead. Records
/// the last series it offered (if any), for ScanLeaf's closing budget
/// check.
template <typename W>
struct LeafRefine {
  static constexpr bool kPrecharged = true;

  const W* w;
  core::SeriesId last = 0;

  core::SearchStats& stats() const { return w->stats(); }
  bool Admits(double lb) const { return w->MemberAdmits(lb); }
  bool Stop() const { return w->RawCapReached(); }
  double AbandonBound() const { return w->sink().Bound(); }
  void Offer(core::SeriesId id, double d) {
    w->sink().Offer(id, d);
    last = id;
  }
};

/// Verifies the series `ids` (strictly ascending) of one leaf for a
/// core::TreeWorker `w`, reading through the worker's cursor `raw`:
/// charges the leaf as one random access plus contiguous reads (the
/// paper's tree I/O model), then refines its members with
/// core::RefineLoop against the sink's live bound, stopping when the
/// raw-series budget fires.
///
/// With a `member_lb(id)` (a squared-distance lower bound from an
/// in-memory summary), a filter pass bounds every member once — one
/// lower-bound computation each — and keeps those `W::MemberAdmits` at
/// leaf entry; the refine loop re-checks each stored bound against the
/// live sink just before its distance. The sink's bound only tightens, so
/// a member dropped at entry would also be dropped live: the answer, the
/// bsf trajectory and every counter are those of a member-by-member loop,
/// except the lower bounds of a leaf that the raw cap interrupts (the
/// filter pass has bounded all of its members). Skipped members spend no
/// raw budget. Without a member bound every member survives.
template <typename W, typename MemberBound = NoMemberBound>
void ScanLeaf(std::span<const core::SeriesId> ids, io::CountedStorage& raw,
              const core::QueryOrder& order, const W& w,
              const MemberBound& member_lb = {}) {
  core::SearchStats& stats = w.stats();
  io::ChargeLeafRead(ids.size(), raw.series_bytes(), &stats);
  if (ids.empty() || w.RawCapReached()) return;

  std::span<const core::SeriesId> survivors = ids;
  std::span<const double> bounds;
  if constexpr (!std::is_same_v<MemberBound, NoMemberBound>) {
    core::Candidates& scratch = ScratchLeafSurvivors();
    scratch.Clear();
    for (const core::SeriesId id : ids) {
      const double lb = member_lb(id);
      ++stats.lower_bound_computations;
      if (w.MemberAdmits(lb)) scratch.Add(id, lb);
    }
    survivors = scratch.ids;
    bounds = scratch.bounds;
  }

  LeafRefine<W> refine{&w};
  core::RefineLoop(survivors, bounds, raw, order, refine);
  // A member-by-member loop checks the cap before every member: when the
  // last series read reached it and members follow it in the leaf, the
  // budget counts as exhausted in this leaf, not at the next leaf's entry.
  // (With nothing read the cap is as unreached as it was at entry.)
  if (refine.last != ids.back()) w.RawCapReached();
}

/// Checks that the leaves of an index over `series_count` series
/// partition its ids: each leaf strictly ascending (ScanLeaf's read plan
/// needs ascending ids; a build inserts in id order and splits keep it)
/// and every series listed by exactly one leaf. Loaders refuse a file
/// that fails it; builds and ADS+ query-time splits DCHECK it.
class LeafIdPartition {
 public:
  explicit LeafIdPartition(size_t series_count) : listed_(series_count) {}

  /// Adds one leaf's ids: null, or what is wrong with them.
  const char* Add(std::span<const core::SeriesId> ids) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] >= listed_.size()) {
        return "leaf entry is out of the dataset's range";
      }
      if (i > 0 && ids[i] <= ids[i - 1]) {
        return "leaf ids are not strictly ascending";
      }
      if (listed_[ids[i]]) return "leaves list a series twice";
      listed_[ids[i]] = true;
    }
    count_ += ids.size();
    return nullptr;
  }

  /// The number of ids added so far.
  size_t listed() const { return count_; }

  /// After the last leaf: null, or what is wrong with the whole set.
  const char* Finish() const {
    return count_ == listed_.size() ? nullptr
                                    : "leaves do not list every series";
  }

 private:
  std::vector<bool> listed_;
  size_t count_ = 0;
};

/// True when `for_each_leaf(visit)`, calling `visit(ids)` once per leaf,
/// lists a partition of [0, series_count) (for DCHECKs).
template <typename ForEachLeaf>
bool LeavesPartitionIds(size_t series_count, ForEachLeaf&& for_each_leaf) {
  LeafIdPartition partition(series_count);
  bool ok = true;
  for_each_leaf([&](std::span<const core::SeriesId> ids) {
    ok = ok && partition.Add(ids) == nullptr;
  });
  return ok && partition.Finish() == nullptr;
}

}  // namespace hydra::index

#endif  // HYDRA_INDEX_LEAF_SCAN_H_
