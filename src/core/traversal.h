// The tree search driver and the one parallel primitive. TreeSearch<Policy>
// is the one search driver of the five tree indexes: a method supplies only
// its seeds, child expansion, home descent and leaf loop, and the driver
// runs the best-first candidate queue for k-NN and range search.
// ParallelScan deals a flat index range out to a query's workers; every
// intra-query parallel method (KnnPlan::query_threads) runs on it.
//
// Trees go wide in the MESSI/ParIS+ shape: the calling thread expands the
// internal nodes, pruning against its bound, and collects the leaves; the
// leaves are sorted by lower bound and dealt out one at a time, each worker
// re-testing a leaf against its own answer heap, which publishes through
// one lock-free SharedBound.
//
// Determinism contract: the serial path (workers == 1) is the classic
// single-queue best-first loop, answers AND work counters. The parallel
// path gives bit-identical *answers* for exact k-NN and range queries at
// any worker count (worker-local heaps are merged by (dist_sq, id), and
// every worker's pruning bound is always >= the final k-th true distance,
// the SharedBound soundness contract, so no true neighbor is pruned or
// early-abandoned away); per-worker work counters vary with bound-arrival
// timing, like the sharded fan-out. Order-dependent disciplines (epsilon
// shrink, delta leaf caps, explicit budgets) depend on the visit order, so
// SearchMethod::Execute only sets query_threads > 1 on pure-exact
// unbudgeted plans.
#ifndef HYDRA_CORE_TRAVERSAL_H_
#define HYDRA_CORE_TRAVERSAL_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/knn.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "core/types.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hydra::core {

/// Block-cyclic parallel scan over [0, count): `scan(w, begin, end)` is
/// called for disjoint blocks of `block` indices, workers grabbing the next
/// block off an atomic cursor. The caller is worker 0 and helpers of the
/// process pool (util::Fork) are the rest, so no call creates a thread,
/// and a worker that joins late finds the cursor spent. The serial path
/// (workers <= 1) makes exactly one call, scan(0, 0, count), so a driver's
/// old flat loop moves into the callback unchanged and stays
/// bit-identical. ADS+'s summary pass, the
/// flat refine driver, the scans' series loops (see core/refine.h) and
/// the tree driver's collected leaves use this.
inline void ParallelScan(
    size_t workers, size_t count, size_t block,
    const std::function<void(size_t, size_t, size_t)>& scan) {
  HYDRA_CHECK(block > 0);
  if (count == 0) return;
  // Width 1 takes everything as one block: a single scan(0, 0, count).
  const size_t step = workers > 1 ? block : count;
  std::atomic<size_t> cursor{0};
  util::Fork(workers, [&](size_t w) {
    HYDRA_OBS_SPAN_ARG("scan", "worker", w);
    for (;;) {
      const size_t begin = cursor.fetch_add(step, std::memory_order_relaxed);
      if (begin >= count) return;
      scan(w, begin, std::min(begin + step, count));
    }
  });
}

/// Per-worker answer heaps and ledgers of one intra-query-parallel k-NN
/// traversal, plus the deterministic merge.
///
/// Worker 0 runs on the calling thread and answers into `primary` (the
/// driver's scratch heap, which the ng-descent bsf phase has usually
/// already primed) with `primary_stats` (the result ledger, already
/// carrying the descent's counters); workers 1..N-1 run on pool helpers
/// and get engine-owned plain heaps and fresh ledgers (a helper must not
/// touch the calling thread's thread_local scratch).
///
/// Bound wiring: with one worker this attaches plan.shared_bound to the
/// primary heap — exactly what the drivers did, a no-op when null. With
/// N > 1 every worker heap attaches to one SharedBound — the plan's when
/// sharded (shards x workers share a single bound per query) or an
/// engine-local one otherwise — so each worker's Bound() is
/// min(local k-th, global published k-th) and never drops below the final
/// k-th true distance.
class KnnWorkers {
 public:
  KnnWorkers(KnnHeap* primary, SearchStats* primary_stats,
             const KnnPlan& plan)
      : primary_(primary),
        primary_stats_(primary_stats),
        workers_(plan.query_threads < 1 ? 1 : plan.query_threads) {
    if (workers_ == 1) {
      primary_->ShareBound(plan.shared_bound);
      return;
    }
    SharedBound* bound =
        plan.shared_bound != nullptr ? plan.shared_bound : &own_bound_;
    primary_->ShareBound(bound);
    extra_heaps_.resize(workers_ - 1);
    extra_stats_.resize(workers_ - 1);
    for (KnnHeap& heap : extra_heaps_) {
      heap.Reset(plan.k);
      heap.ShareBound(bound);
    }
  }

  size_t workers() const { return workers_; }

  KnnHeap& heap(size_t w) {
    return w == 0 ? *primary_ : extra_heaps_[w - 1];
  }

  SearchStats& stats(size_t w) {
    return w == 0 ? *primary_stats_ : extra_stats_[w - 1];
  }

  /// Deterministic merge: extracts every worker's candidates, sorts the
  /// union by (dist_sq, id) — the repo-wide Neighbor order — and keeps the
  /// k best; folds the extra workers' ledgers into the primary one in
  /// worker order. With one worker this is exactly the old
  /// ExtractSortedTo, counters untouched.
  void Finish(size_t k, std::vector<Neighbor>* out) {
    primary_->ExtractSortedTo(out);
    if (workers_ == 1) return;
    std::vector<Neighbor> part;
    for (KnnHeap& heap : extra_heaps_) {
      heap.ExtractSortedTo(&part);
      out->insert(out->end(), part.begin(), part.end());
    }
    std::sort(out->begin(), out->end());
    if (out->size() > k) out->resize(k);
    for (const SearchStats& s : extra_stats_) primary_stats_->Add(s);
  }

 private:
  KnnHeap* primary_;
  SearchStats* primary_stats_;
  size_t workers_;
  SharedBound own_bound_;
  std::vector<KnnHeap> extra_heaps_;
  std::vector<SearchStats> extra_stats_;
};

/// The range-query counterpart of KnnWorkers: one RangeCollector and one
/// ledger per worker. Range pruning uses the fixed r^2 bound, so the set
/// of nodes visited — and therefore every counter — is traversal-order
/// independent; the merge only has to concatenate, sort by (dist_sq, id),
/// and sum ledgers in worker order.
class RangeWorkers {
 public:
  RangeWorkers(double radius_sq, SearchStats* primary_stats,
               size_t query_threads)
      : primary_stats_(primary_stats),
        workers_(query_threads < 1 ? 1 : query_threads) {
    collectors_.reserve(workers_);
    for (size_t w = 0; w < workers_; ++w) collectors_.emplace_back(radius_sq);
    extra_stats_.resize(workers_ - 1);
  }

  size_t workers() const { return workers_; }

  RangeCollector& collector(size_t w) { return collectors_[w]; }

  SearchStats& stats(size_t w) {
    return w == 0 ? *primary_stats_ : extra_stats_[w - 1];
  }

  /// Concatenates every worker's matches sorted by (dist_sq, id) into
  /// `*out` and folds the extra ledgers into the primary one.
  void Finish(std::vector<Neighbor>* out) {
    *out = collectors_[0].TakeSorted();
    if (workers_ == 1) return;
    for (size_t w = 1; w < workers_; ++w) {
      const std::vector<Neighbor> part = collectors_[w].TakeSorted();
      out->insert(out->end(), part.begin(), part.end());
    }
    std::sort(out->begin(), out->end());
    for (const SearchStats& s : extra_stats_) primary_stats_->Add(s);
  }

 private:
  SearchStats* primary_stats_;
  size_t workers_;
  std::vector<RangeCollector> collectors_;
  std::vector<SearchStats> extra_stats_;
};


/// One frontier entry of a TreeSearch: a node plus the lower bound that
/// orders the queue (smallest first) and one policy-defined companion.
template <typename Node>
struct TreeItem {
  double lb = 0.0;
  const Node* node = nullptr;
  /// Policy-defined companion value (the M-tree's d(query, node center)).
  double aux = 0.0;

  bool operator<(const TreeItem& other) const { return lb > other.lb; }
};

/// Base of a TreeSearch policy over nodes of type `NodeT`: the frontier
/// entry, the push callback its Seeds and Expand hooks receive, and the
/// units of its lower bounds (a metric tree shadows kDistanceBounds).
template <typename NodeT>
struct TreePolicy {
  using Node = NodeT;
  using Item = TreeItem<NodeT>;
  using Push = std::function<void(Item)>;
  static constexpr bool kDistanceBounds = false;
};

/// What one worker of a TreeSearch hands to its policy's hooks: the answer
/// sink (KnnHeap for k-NN, RangeCollector for range queries), the worker's
/// ledger, and the pruning tests against the sink's live bound.
///
/// `kDistanceBounds` selects the units of every lower bound the policy
/// tests: squared distances (the default; the k-NN test is
/// lb < bsf^2 * bound_scale) or true distances for metric trees (the
/// M-tree's lb < sqrt(bsf^2) * 1/(1+epsilon)). Range queries admit a bound
/// equal to the radius, since a match at exactly r counts.
template <typename Sink, bool kDistanceBounds>
class TreeWorker {
 public:
  static constexpr bool kRange = std::is_same_v<Sink, RangeCollector>;

  TreeWorker(size_t index, KnnHeap* heap, SearchStats* stats,
             const KnnPlan& plan)
      : index_(index),
        sink_(heap),
        stats_(stats),
        plan_(&plan),
        scale_(kDistanceBounds ? 1.0 / (1.0 + plan.epsilon)
                               : plan.bound_scale) {}

  TreeWorker(size_t index, RangeCollector* collector, SearchStats* stats,
             double radius)
      : index_(index),
        sink_(collector),
        stats_(stats),
        scale_(kDistanceBounds ? radius : collector->Bound()) {}

  /// Worker index, 0 on the calling thread (for per-worker policy state).
  size_t index() const { return index_; }
  Sink& sink() const { return *sink_; }
  SearchStats& stats() const { return *stats_; }

  /// True when a node or entry with lower bound `lb` may still hold an
  /// answer (see the class comment for units).
  bool Admits(double lb) const {
    if constexpr (kRange) {
      return lb <= scale_;
    } else if constexpr (kDistanceBounds) {
      return lb < std::sqrt(sink_->Bound()) * scale_;
    } else {
      return lb < sink_->Bound() * scale_;
    }
  }

  /// True when a leaf member whose in-memory summary bounds its squared
  /// distance by `lb_sq` may still enter the sink: the sink's own
  /// admission rule, without bound_scale (a k-NN heap keeps only
  /// d < Bound(), a range collector d <= r^2), so a rejected member could
  /// never have been kept.
  bool MemberAdmits(double lb_sq) const {
    if constexpr (kRange) {
      return lb_sq <= sink_->Bound();
    } else {
      return lb_sq < sink_->Bound();
    }
  }

  /// The raw-series budget, checked before every raw examination (see
  /// KnnPlan::RawCapReached); range queries have none.
  bool RawCapReached() const {
    if constexpr (kRange) {
      return false;
    } else {
      return plan_->RawCapReached(stats_);
    }
  }

 private:
  size_t index_;
  Sink* sink_;
  SearchStats* stats_;
  const KnnPlan* plan_ = nullptr;  // k-NN only
  // k-NN: bound_scale, or 1/(1+epsilon) on distance bounds; range: the
  // fixed admission threshold (r^2, or r on distance bounds).
  double scale_;
};

/// The one search driver of the tree indexes (DSTree, iSAX2+, SFA trie,
/// M-tree, R*-tree). A method's Policy derives from TreePolicy<Node> and
/// supplies only what differs between trees:
///
///   Policy(args...);                          // per-query setup
///   int64_t LeafCount() const;                // delta rule (0 = none)
///   bool IsLeaf(const Node&) const;
///   size_t LeafSize(const Node&) const;       // series under a leaf
///   const Node* Home();                       // ng-capable trees only:
///                                             // the one-path descent
///   template <class W> void Seeds(const W&, push);   // first entries
///   template <class W> void Expand(item, const W&, push);  // children
///   template <class W> void VerifyLeaf(item, const W&);    // leaf loop
///   void PrepareMemberBounds();               // optional: per-query
///                                             // member-bound state
///
/// Seeds and Expand compute each lower bound, charge it, and push the
/// entries `W::Admits`; VerifyLeaf reads the leaf's series in the method's
/// own read style, checks `W::RawCapReached` before each examination and
/// offers distances to `W::sink()` (skipping members whose summary bound
/// `W::MemberAdmits` rejects). PrepareMemberBounds runs on the calling
/// thread right before the best-first traversal, after the home visit —
/// so the home leaf, and with it the whole ng path, stays unfiltered and
/// pays nothing for it; leaf workers only read what it built. The
/// driver owns the rest: the home
/// visit and the ng path (Definition 7), skipping the traversal when a
/// budget fires in the home leaf, best-first k-NN with bound_scale, the
/// leaf cap and raw cap, KnnWorkers / RangeWorkers and the SharedBound,
/// the range path, the `leaf_verify` span, and cpu_seconds (which include
/// the policy's per-query setup).
template <typename Policy>
class TreeSearch {
 public:
  using Node = typename Policy::Node;
  using Item = TreeItem<Node>;
  using Push = std::function<void(Item)>;

  /// k-NN under `plan` (exact, epsilon, delta-epsilon, budgeted; wide
  /// when plan.query_threads > 1).
  template <typename... Args>
  static QueryResult Knn(const KnnPlan& plan, Args&&... args) {
    return KnnSearch(plan, /*traverse=*/true, std::forward<Args>(args)...);
  }

  /// ng-approximate k-NN (Definition 7): the home leaf alone.
  template <typename... Args>
  static QueryResult Ng(size_t k, Args&&... args) {
    return KnnSearch(KnnPlan{.k = k}, /*traverse=*/false,
                     std::forward<Args>(args)...);
  }

  /// r-range query (Definition 2). Every entry is admitted against the
  /// fixed radius before it enters the frontier, so the visited set — and
  /// every counter but the raw-read cursor — is independent of the
  /// traversal order and the worker count.
  template <typename... Args>
  static QueryResult Range(const RangePlan& plan, Args&&... args) {
    util::WallTimer timer;
    Policy policy(std::forward<Args>(args)...);
    QueryResult result;
    RangeWorkers workers(plan.radius * plan.radius, &result.stats,
                         plan.query_threads);
    PrepareMemberBounds(policy);
    Traverse(policy, KnnPlan{}, nullptr, workers.workers(), [&](size_t w) {
      return RangeWorker(w, &workers.collector(w), &workers.stats(w),
                         plan.radius);
    });
    workers.Finish(&result.neighbors);
    result.stats.cpu_seconds = timer.Seconds();
    return result;
  }

 private:
  static constexpr bool kHasHome = requires(Policy& p) { p.Home(); };
  using KnnWorker = TreeWorker<KnnHeap, Policy::kDistanceBounds>;
  using RangeWorker = TreeWorker<RangeCollector, Policy::kDistanceBounds>;

  template <typename... Args>
  static QueryResult KnnSearch(const KnnPlan& plan, bool traverse,
                               Args&&... args) {
    util::WallTimer timer;
    Policy policy(std::forward<Args>(args)...);
    QueryResult result;
    KnnHeap& heap = ScratchKnnHeap(plan.k);
    KnnWorkers workers(&heap, &result.stats, plan);
    const auto worker = [&](size_t w) {
      return KnnWorker(w, &workers.heap(w), &workers.stats(w), plan);
    };
    // The home visit primes the bsf on the calling thread (worker 0),
    // whose bound every other worker then starts from.
    const Node* home = nullptr;
    if constexpr (kHasHome) {
      home = policy.Home();
      if (home != nullptr) {
        ++result.stats.nodes_visited;
        Verify(policy, Item{0.0, home}, worker(0));
      }
    }
    // A budget exhausted already in the home leaf makes the answer final.
    if (traverse && !result.stats.budget_exhausted) {
      PrepareMemberBounds(policy);
      Traverse(policy, plan, home, workers.workers(), worker);
    }
    workers.Finish(plan.k, &result.neighbors);
    result.stats.cpu_seconds = timer.Seconds();
    return result;
  }

  static void PrepareMemberBounds(Policy& policy) {
    if constexpr (requires { policy.PrepareMemberBounds(); }) {
      policy.PrepareMemberBounds();
    }
  }

  template <typename W>
  static void Verify(Policy& policy, const Item& leaf, const W& worker) {
    const size_t series = policy.LeafSize(*leaf.node);
    if (series == 0) return;
    HYDRA_OBS_SPAN_ARG("leaf_verify", "series", series);
    policy.VerifyLeaf(leaf, worker);
  }

  /// Best-first traversal from the policy's seeds on the calling thread,
  /// `worker(w)` viewing worker w's sink and ledger. A pop stops the loop
  /// once its bound is no longer admitted, a budget fired or the leaf cap
  /// is reached; `home` was already visited and is skipped. With one
  /// worker each leaf is verified as it pops. With more, a leaf that pops
  /// once worker 0's bound is finite is collected instead (the home leaf
  /// makes it finite, a range bound always is), and the collected leaves
  /// are verified in bound order by ParallelScan, each worker re-testing
  /// the leaf against its own live bound.
  template <typename MakeWorker>
  static void Traverse(Policy& policy, const KnnPlan& plan, const Node* home,
                       size_t workers, const MakeWorker& worker) {
    // Execute's gate keeps every visit-order-dependent knob serial.
    HYDRA_DCHECK(workers == 1 ||
                 (plan.bound_scale == 1.0 && plan.epsilon == 0.0 &&
                  plan.delta >= 1.0 && plan.max_leaves == KnnPlan::kUnlimited &&
                  plan.max_raw == KnnPlan::kUnlimited));
    const auto view = worker(0);
    std::vector<Item> leaves;
    {
      HYDRA_OBS_SPAN_ARG("traversal", "worker", 0);
      std::priority_queue<Item> queue;
      const Push push = [&queue](Item item) { queue.push(std::move(item)); };
      policy.Seeds(view, push);
      int64_t visited = home != nullptr ? 1 : 0;
      while (!queue.empty()) {
        const Item item = queue.top();
        queue.pop();
        if (view.stats().budget_exhausted || !view.Admits(item.lb)) break;
        ++view.stats().nodes_visited;
        if (!policy.IsLeaf(*item.node)) {
          policy.Expand(item, view, push);
        } else if (item.node == home) {
          continue;
        } else if (workers > 1 && std::isfinite(view.sink().Bound())) {
          leaves.push_back(item);
        } else if (plan.LeafCapReached(visited, policy.LeafCount(),
                                       &view.stats())) {
          break;
        } else {
          Verify(policy, item, view);
          ++visited;
        }
      }
    }
    std::stable_sort(leaves.begin(), leaves.end(),
                     [](const Item& a, const Item& b) { return a.lb < b.lb; });
    ParallelScan(workers, leaves.size(), /*block=*/1,
                 [&](size_t w, size_t begin, size_t end) {
                   const auto own = worker(w);
                   for (size_t i = begin; i < end; ++i) {
                     if (own.Admits(leaves[i].lb)) {
                       Verify(policy, leaves[i], own);
                     }
                   }
                 });
  }
};

}  // namespace hydra::core

#endif  // HYDRA_CORE_TRAVERSAL_H_
