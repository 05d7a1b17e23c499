// Factory for the ten methods of the study, addressed by their paper names.
#ifndef HYDRA_BENCH_REGISTRY_H_
#define HYDRA_BENCH_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/method.h"

namespace hydra::bench {

/// Creates a method by its paper name: "ADS+", "DSTree", "iSAX2+", "SFA",
/// "UCR-Suite", "VA+file", "MASS", "Stepwise", "M-tree", "R*-tree".
/// `leaf_capacity` == 0 picks a sensible default per method (tree methods
/// use it directly; VA+file ignores it; M-tree/R*-tree use reduced values
/// per their much smaller tuned leaves).
std::unique_ptr<core::SearchMethod> CreateMethod(const std::string& name,
                                                 size_t leaf_capacity = 0);

/// All ten method names, in the paper's Table 1 order.
std::vector<std::string> AllMethodNames();

/// The six methods that survive the paper's Section 4.3.2 cut and compete
/// in the Section 4.3.3 comparison.
std::vector<std::string> BestSixNames();

/// The five index methods with summarized leaves (TLB/pruning exhibits).
std::vector<std::string> PruningMethodNames();

/// The four ng-capable trees (Table 1): they support every quality mode of
/// core::QuerySpec, including the delta-epsilon leaf-visit rule.
std::vector<std::string> NgCapableNames();

/// The seven index methods whose lower-bounding loops support
/// epsilon-approximate pruning (everything but the sequential scans).
std::vector<std::string> EpsilonCapableNames();

/// The methods whose traits advertise persistence: their index can be
/// built once (`hydra build`), persisted, and reopened by later processes
/// (Save/Open). The sequential scans are excluded — they have no index
/// structure to persist.
std::vector<std::string> PersistentCapableNames();

/// The methods whose traits advertise sharding: they can serve as the
/// per-shard components of a shard::ShardedIndex (the seven index
/// methods; the sequential scans have no index partition to build).
std::vector<std::string> ShardableNames();

/// The methods whose traits advertise concurrent query answering: `hydra
/// serve` executes their queries on all --serve-threads workers at once
/// (others are served too, but with execution serialized).
std::vector<std::string> ConcurrentCapableNames();

/// Creates a sharded container over `shards` per-shard instances of the
/// named method (which must be shardable — the CLI refuses others up
/// front), fanning builds and queries out over `threads` workers (0 =
/// one per shard up to the hardware; 1 = serial). `leaf_capacity` is
/// forwarded to every per-shard CreateMethod call.
std::unique_ptr<core::SearchMethod> CreateShardedMethod(
    const std::string& name, size_t shards, size_t threads,
    size_t leaf_capacity = 0);

}  // namespace hydra::bench

#endif  // HYDRA_BENCH_REGISTRY_H_
