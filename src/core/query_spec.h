// The unified query description executed by SearchMethod::Execute: one
// struct expresses exact, ng-/epsilon-/delta-epsilon-approximate, and
// budgeted whole-matching queries (the companion study's Definitions 1-7).
#ifndef HYDRA_CORE_QUERY_SPEC_H_
#define HYDRA_CORE_QUERY_SPEC_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/search_stats.h"

namespace hydra::core {

class SharedBound;  // see core/knn.h

/// Flavor of a query: k nearest neighbors or a fixed-radius range.
enum class QueryKind : uint8_t { kKnn, kRange };

/// One whole-matching query, fully specified. Build a spec with the named
/// factories below (or aggregate-initialize it) and hand it to
/// SearchMethod::Execute, which validates it once and dispatches.
///
/// Quality modes (see QualityMode): kExact needs no parameters; kEpsilon
/// reads `epsilon`; kDeltaEpsilon reads `epsilon` and `delta`. Range
/// queries support only kExact and no budgets (the approximate-matching
/// literature, like the companion study, defines the relaxed guarantees
/// for k-NN queries).
///
/// Budgets cap the work of a k-NN query regardless of mode (except
/// kNgApprox, which is already the minimal one-leaf traversal): when a
/// budget stops a traversal early the answer keeps whatever candidates
/// were found, stats.budget_exhausted is set, and the delivered mode drops
/// to kNgApprox because no error bound survives a truncated search.
struct QuerySpec {
  QueryKind kind = QueryKind::kKnn;
  /// Neighbors requested (kKnn; must be >= 1).
  size_t k = 1;
  /// Range radius in *unsquared* distance units (kRange; must be >= 0).
  double radius = 0.0;
  /// Requested quality guarantee.
  QualityMode mode = QualityMode::kExact;
  /// Relative error bound of kEpsilon / kDeltaEpsilon (>= 0; 0 == exact).
  double epsilon = 0.0;
  /// Probability the epsilon bound holds under kDeltaEpsilon, in (0, 1];
  /// 1 degenerates to plain kEpsilon.
  double delta = 1.0;
  /// Budget: leaf visits allowed before the traversal stops (0 = no cap).
  int64_t max_visited_leaves = 0;
  /// Budget: raw series examinations allowed before the traversal stops
  /// (0 = no cap).
  int64_t max_raw_series = 0;
  /// Workers cooperating on this one query's search (>= 1; 1 = the
  /// classic serial loop). Every method honors more than one, but only
  /// for searches whose answers are visit-order independent: exact
  /// unbudgeted k-NN plans and range queries. Order-dependent disciplines
  /// (epsilon shrink, delta caps, explicit budgets) always run serially so
  /// their answers stay bit-identical to a query-threads=1 run.
  size_t query_threads = 1;

  static QuerySpec Knn(size_t k) {
    return {.kind = QueryKind::kKnn, .k = k};
  }
  static QuerySpec Range(double radius) {
    return {.kind = QueryKind::kRange, .radius = radius};
  }
  static QuerySpec NgApprox(size_t k) {
    return {.kind = QueryKind::kKnn, .k = k, .mode = QualityMode::kNgApprox};
  }
  static QuerySpec Epsilon(size_t k, double epsilon) {
    return {.kind = QueryKind::kKnn,
            .k = k,
            .mode = QualityMode::kEpsilon,
            .epsilon = epsilon};
  }
  static QuerySpec DeltaEpsilon(size_t k, double epsilon, double delta) {
    return {.kind = QueryKind::kKnn,
            .k = k,
            .mode = QualityMode::kDeltaEpsilon,
            .epsilon = epsilon,
            .delta = delta};
  }

  bool has_budget() const {
    return max_visited_leaves > 0 || max_raw_series > 0;
  }
};

/// Derived per-query execution plan handed to the DoSearchKnn drivers: the
/// product of Execute() resolving a QuerySpec against the method's traits.
/// The all-defaults plan is the exact search, and every knob defaults to
/// "no effect", so exact execution through a plan is bit-identical to the
/// pre-plan code paths.
struct KnnPlan {
  static constexpr int64_t kUnlimited =
      std::numeric_limits<int64_t>::max();

  size_t k = 1;
  /// Multiplier applied to the best-so-far before every lower-bound
  /// pruning comparison, in *squared*-distance space: 1/(1+epsilon)^2.
  /// Pruning a node whose lb_sq >= bsf_sq * bound_scale guarantees every
  /// reported distance is within (1+epsilon) of the truth. 1.0 == exact.
  double bound_scale = 1.0;
  /// The unsquared epsilon, for methods that prune on true (unsquared)
  /// distances (M-tree): shrink the unsquared bsf by 1/(1+epsilon).
  double epsilon = 0.0;
  /// delta of the delta-epsilon leaf-visit stopping rule; 1.0 disables it.
  double delta = 1.0;
  /// Explicit budgets from the QuerySpec (kUnlimited when unset). Drivers
  /// that stop because of these set stats.budget_exhausted; stopping via
  /// the delta rule is part of the delta-epsilon contract and does not.
  int64_t max_leaves = kUnlimited;
  int64_t max_raw = kUnlimited;
  /// Cross-shard pruning channel of the sharded index (never set by
  /// Execute — only shard::ShardedIndex's fan-out fills it, one bound per
  /// query). Drivers attach it to their answer heap right after
  /// ScratchKnnHeap via KnnHeap::ShareBound; null (the unsharded case) is
  /// a no-op, so plan-driven code paths stay bit-identical without it.
  SharedBound* shared_bound = nullptr;
  /// Workers cooperating on this search: a tree's core::BestFirstTraverse,
  /// a flat method's core::ParallelScan blocks (see core/traversal.h and
  /// core/refine.h). Execute sets it above 1 only on "pure exact" plans
  /// (bound_scale == 1, delta == 1, no explicit budgets), because only
  /// order-independent answers survive a cooperative search
  /// bit-identically. Composes with shared_bound: under a sharded fan-out
  /// every shard's workers attach to the one cross-shard bound.
  size_t query_threads = 1;

  /// The delta-epsilon stopping rule over `total` units of random access:
  /// n_delta = ceil(delta * total), at least 1 (companion paper's
  /// leaf-visit rule; delta -> 0 degenerates to the one-leaf ng descent,
  /// delta == 1 disables the rule). Trees count leaves; skip-sequential
  /// methods (ADS+) count candidate series, their unit of random access.
  int64_t DeltaCap(int64_t total) const {
    if (delta >= 1.0 || total <= 0) return kUnlimited;
    const auto n_delta =
        static_cast<int64_t>(std::ceil(delta * static_cast<double>(total)));
    return std::max<int64_t>(1, n_delta);
  }

  /// Leaf visits allowed for a tree with `leaf_count` leaves: the tighter
  /// of the delta stopping rule and the explicit max_leaves budget.
  int64_t LeafCap(int64_t leaf_count) const {
    return std::min(max_leaves, DeltaCap(leaf_count));
  }

  /// The one stopping rule shared by every tree driver: true when
  /// `visited` leaf visits have reached the effective cap, in which case
  /// the traversal must stop before visiting another leaf. Records
  /// budget_exhausted in `*stats` only when the explicit max_leaves
  /// budget (not the delta rule, which is part of the delta-epsilon
  /// contract) was the binding constraint.
  bool LeafCapReached(int64_t visited, int64_t leaf_count,
                      SearchStats* stats) const {
    if (visited < LeafCap(leaf_count)) return false;
    if (visited >= max_leaves) stats->budget_exhausted = true;
    return true;
  }

  /// The raw-series twin of LeafCapReached, checked before every raw
  /// examination so `raw_series_examined` never exceeds max_raw: true when
  /// the budget is exhausted (recorded in `*stats`) and the traversal must
  /// stop.
  bool RawCapReached(SearchStats* stats) const {
    if (stats->raw_series_examined < max_raw) return false;
    stats->budget_exhausted = true;
    return true;
  }
};

/// Derived per-query execution plan of the range drivers, the r-range
/// counterpart of KnnPlan. Range queries are exact-only and unbudgeted
/// (CheckSpec enforces it), so the plan is just the radius plus the
/// traversal width; answers are visit-order independent under the fixed
/// r^2 bound, which is why query_threads needs no pure-exact gate here.
struct RangePlan {
  /// Range radius in *unsquared* distance units (>= 0; drivers square it).
  double radius = 0.0;
  /// Workers cooperating on the search (>= 1); see
  /// KnnPlan::query_threads.
  size_t query_threads = 1;
};

}  // namespace hydra::core

#endif  // HYDRA_CORE_QUERY_SPEC_H_
