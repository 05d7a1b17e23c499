// Sharded index container: N per-shard SearchMethod instances over disjoint
// contiguous slices of one Dataset, behind the ordinary SearchMethod
// contract — parallel per-shard Build, fan-out/merge Execute with a shared
// cross-shard k-NN bound, and persistence of all shards in one container
// file (the route the parallel-indexing literature takes to multi-core:
// partition the collection, search partitions independently, merge
// candidates).
#ifndef HYDRA_SHARD_SHARDED_INDEX_H_
#define HYDRA_SHARD_SHARDED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/method.h"

namespace hydra::shard {

/// Creates one (unbuilt) shard instance. The factory must return the same
/// method configuration every call — shards of one container are
/// homogeneous.
using MethodFactory =
    std::function<std::unique_ptr<core::SearchMethod>()>;

struct ShardedOptions {
  /// Shards requested. Clamped to [1, dataset size] at Build; a persisted
  /// container's manifest overrides it at Open (like every persisted
  /// method option).
  size_t shards = 2;
  /// Width of the per-shard build fan-out and the per-query shard
  /// fan-out, a util::ForkEach on the process pool. 0 = min(shard count,
  /// hardware concurrency); 1 = fully serial. Answers are bit-identical at
  /// any thread count.
  size_t threads = 0;
};

/// A SearchMethod composed of N per-shard methods ("components"), each
/// built over one contiguous slice of the dataset (see Dataset::Slice).
///
/// Contract highlights (docs/ARCHITECTURE.md, "Sharded index layer"):
///  - Ids: components address series by slice-local id; every result is
///    mapped back to global ids (local + slice begin) before merging.
///  - Exactness: exact k-NN and range answers are bit-identical to the
///    unsharded method at any shard and thread count (ties at the k-th
///    distance break by id, the repo-wide Neighbor order). Cross-shard
///    pruning shares a core::SharedBound through KnnPlan::shared_bound;
///    the bound never drops below the final global k-th distance, so no
///    true neighbor is ever pruned.
///  - Stats: per-shard SearchStats are summed in shard order (cpu_seconds
///    is total CPU work, like the batch engine); the merge's own time is
///    added on top.
///  - Budgets: an explicit max_visited_leaves / max_raw_series budget B
///    over N shards is split B/N per shard, the first B mod N shards
///    getting one extra — the sum never exceeds B. A budget smaller than
///    the shard count starves the tail shards (they answer empty and
///    report the budget as exhausted immediately).
///  - Approximate modes: fan out with the same per-shard plan; the
///    epsilon guarantee survives the merge (same bound argument), while
///    ng returns the merged best of one descent *per shard* — at least as
///    good as one global descent, still guarantee-free.
///  - Persistence: one container file. DoSave writes a "sharded-manifest"
///    section (component method name, shard count, slice boundaries,
///    per-shard dataset fingerprints), then routes every component
///    through its own DoSave, so each of the seven persistent methods is
///    shardable for free. Open validates the manifest against the given
///    dataset and routes each component through its DoOpen.
///
/// The dataset outlives the index (the base-class contract); slices held
/// here borrow its buffer.
class ShardedIndex : public core::SearchMethod {
 public:
  /// `factory` creates the component instances; it must produce a method
  /// whose traits() advertise `shardable` (CHECK-aborted otherwise — the
  /// CLI refuses unshardable methods before constructing one of these).
  ShardedIndex(MethodFactory factory, ShardedOptions options);

  /// "Sharded[<component name>]" — the shard count is a property of the
  /// build (and of the persisted manifest), not of the identity.
  std::string name() const override;

  /// Mirrors the component's quality/budget traits: a fan-out delivers
  /// exactly the guarantees its components do (the fan-out is per-call
  /// state, so concurrent outer queries are as safe as component
  /// queries). Not itself shardable (no nested sharding) and persistent
  /// iff the component is.
  core::MethodTraits traits() const override;

  /// Summed component footprints (leaf vectors concatenated, shard order).
  core::Footprint footprint() const override;

  /// Leaf-count-weighted mean of the component TLBs (NaN before Build and
  /// for components without summarized leaves).
  double MeanTlb(core::SeriesView query) const override;

  /// Shards actually in use: the clamped option after Build, the manifest
  /// count after Open, 0 before either.
  size_t shard_count() const { return shards_.size(); }

  /// Global id of the first series of shard `i` (i < shard_count()).
  size_t shard_begin(size_t i) const { return begins_[i]; }

 protected:
  core::BuildStats DoBuild(const core::Dataset& data) override;
  void DoSave(io::IndexWriter* writer) const override;
  util::Status DoOpen(io::IndexReader* reader,
                      const core::Dataset& data) override;
  core::QueryResult DoSearchKnn(core::SeriesView query,
                                const core::KnnPlan& plan) override;
  core::QueryResult DoSearchKnnNg(core::SeriesView query, size_t k) override;
  core::QueryResult DoSearchRange(core::SeriesView query,
                                  const core::RangePlan& plan) override;

 private:
  /// Cuts `data` into the given (begin, count) slices and instantiates the
  /// per-shard methods.
  void InstantiateShards(const core::Dataset& data,
                         const std::vector<std::pair<size_t, size_t>>& parts);
  /// Runs `fn(i)` for every shard, options_.threads wide on the process
  /// pool.
  void ForEachShard(const std::function<void(size_t)>& fn);
  /// The budget-split rule (see class comment).
  int64_t SplitBudget(int64_t total, size_t shard) const;

  MethodFactory factory_;
  ShardedOptions options_;
  std::string component_name_;        // from a probe instance, for name()
  core::MethodTraits component_traits_;
  std::vector<size_t> begins_;        // global id of each slice's start
  std::vector<core::Dataset> slices_; // borrow the built-over dataset
  std::vector<std::unique_ptr<core::SearchMethod>> shards_;
};

}  // namespace hydra::shard

#endif  // HYDRA_SHARD_SHARDED_INDEX_H_
