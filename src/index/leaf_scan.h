// The leaf loop of the summarized trees (DSTree, iSAX2+, SFA trie): one
// bulk-charged leaf read, a filter pass that keeps the members whose
// in-memory summary bound may still enter the answer, then the shared
// refine loop (core/refine.h) over those survivors only. Shared by their
// core::TreeSearch policies. Also the whole-tree computations every tree
// index runs on its one node walk (`ForEachNode`): the id partition check
// of loaders and builds, the footprint and the mean TLB.
#ifndef HYDRA_INDEX_LEAF_SCAN_H_
#define HYDRA_INDEX_LEAF_SCAN_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <ranges>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/method.h"
#include "core/refine.h"
#include "core/types.h"
#include "io/counted_storage.h"
#include "transform/isax.h"

namespace hydra::index {

/// The member bound of a leaf without per-series summaries: every member
/// is verified. Every other member bound is a batch call `(ids, out)`
/// that writes to out[i] a squared-distance lower bound of series ids[i]
/// from an in-memory summary.
struct NoMemberBound {};

/// Member bound from full-resolution iSAX words: `words` holds
/// `table->segments()` symbols per series id (the iSAX2+ and DSTree
/// summary layout), bounded through the query's IsaxQueryTable.
struct IsaxMemberBound {
  const transform::IsaxQueryTable* table;
  const uint8_t* words;

  void operator()(std::span<const core::SeriesId> ids, double* out) const {
    table->LowerBoundsSq(words, ids, out);
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
/// With a member bound, a filter pass bounds every member once — one
/// batch call, one lower-bound computation each — and keeps those
/// `W::MemberAdmits` at leaf entry; the refine loop re-checks each stored
/// bound against the live sink just before its distance. The filter has
/// no branch on the admission test: it writes every id and bound and
/// advances the write position by the test's 0 or 1, because about three
/// members in four are dropped in no predictable order. The sink's bound
/// only tightens, so a member dropped at entry would also be dropped
/// live: the answer, the bsf trajectory and every counter are those of a
/// member-by-member loop, except the lower bounds of a leaf that the raw
/// cap interrupts (the filter pass has bounded all of its members).
/// Skipped members spend no raw budget. Without a member bound every
/// member survives. The survivors and their bounds are left in
/// ScratchLeafSurvivors().
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
    scratch.ids.resize(ids.size());
    scratch.bounds.resize(ids.size());
    member_lb(ids, scratch.bounds.data());
    stats.lower_bound_computations += static_cast<int64_t>(ids.size());
    // The sink's bound, read once per leaf. Serially nothing can move it
    // during the filter; at width > 1 another worker may tighten the
    // shared bound meanwhile, and the stale one only admits members the
    // refine loop re-checks live before any distance.
    const double sink_bound = w.sink().Bound();
    // In place: the write position never passes the read position.
    core::SeriesId* kept_ids = scratch.ids.data();
    double* lbs = scratch.bounds.data();
    size_t kept = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      const double lb = lbs[i];
      kept_ids[kept] = ids[i];
      lbs[kept] = lb;
      kept += W::MemberAdmits(lb, sink_bound) ? 1 : 0;
    }
    scratch.ids.resize(kept);
    scratch.bounds.resize(kept);
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
    ++leaves_;
    return nullptr;
  }

  /// The number of ids added so far.
  size_t listed() const { return count_; }
  /// The number of leaves added so far: a loader's leaf count.
  int64_t leaves() const { return leaves_; }

  /// After the last leaf: null, or what is wrong with the whole set.
  const char* Finish() const {
    return count_ == listed_.size() ? nullptr
                                    : "leaves do not list every series";
  }

 private:
  std::vector<bool> listed_;
  size_t count_ = 0;
  int64_t leaves_ = 0;
};

/// True when the leaves of a node walk list exactly `count` distinct ids of
/// [0, series_count) (by default all of them: a partition), each leaf
/// strictly ascending (for DCHECKs). `for_each_node(visit)` calls
/// `visit(node, depth)` per node; a leaf has `is_leaf` set and lists `ids`.
template <typename ForEachNode>
bool LeavesPartitionIds(size_t series_count, ForEachNode&& for_each_node,
                        std::optional<size_t> count = std::nullopt) {
  LeafIdPartition partition(series_count);
  bool ok = true;
  for_each_node([&](const auto& node, int) {
    if (node.is_leaf) ok = ok && partition.Add(node.ids) == nullptr;
  });
  return ok && partition.listed() == count.value_or(series_count);
}

/// Sums a core::Footprint over a tree's node walk: every node counts with
/// its resident bytes, a leaf also with its fill (members over the leaf
/// capacity) and depth, in walk order. The caller adds what lives outside
/// the nodes.
class FootprintSum {
 public:
  explicit FootprintSum(size_t leaf_capacity)
      : capacity_(static_cast<double>(leaf_capacity)) {}

  /// One node of `bytes` resident bytes; a `leaf` holds `members` at
  /// `depth`.
  void Add(size_t bytes, bool leaf, size_t members, int depth) {
    ++fp_.total_nodes;
    fp_.memory_bytes += static_cast<int64_t>(bytes);
    if (!leaf) return;
    ++fp_.leaf_nodes;
    fp_.leaf_fill_fractions.push_back(static_cast<double>(members) /
                                      capacity_);
    fp_.leaf_depths.push_back(depth);
  }

  core::Footprint Take() { return std::move(fp_); }

 private:
  double capacity_;
  core::Footprint fp_;
};

/// Section 4.2's tightness of the lower bound for `query`: the mean, over
/// the leaves `for_each_leaf(visit)` lists as `visit(ids, node_lb_sq)`, of
/// the leaf's node bound `sqrt(node_lb_sq())` over the mean true distance
/// from `query` to its members `ids`. Empty leaves and leaves at mean
/// distance 0 are skipped; 0 when none is left.
template <typename ForEachLeaf>
double MeanLeafTlb(core::SeriesView query, const core::Dataset& data,
                   ForEachLeaf&& for_each_leaf) {
  double sum = 0.0;
  int64_t leaves = 0;
  for_each_leaf([&](const auto& ids, const auto& node_lb_sq) {
    if (std::ranges::empty(ids)) return;
    double true_sum = 0.0;
    for (const core::SeriesId id : ids) {
      true_sum += std::sqrt(core::SquaredEuclidean(query, data[id]));
    }
    const double mean_true =
        true_sum / static_cast<double>(std::ranges::size(ids));
    if (mean_true > 0.0) {
      sum += std::sqrt(node_lb_sq()) / mean_true;
      ++leaves;
    }
  });
  return leaves == 0 ? 0.0 : sum / static_cast<double>(leaves);
}

}  // namespace hydra::index

#endif  // HYDRA_INDEX_LEAF_SCAN_H_
