// The one refine loop of every filter-and-refine path, the flat driver
// over it, and the loop of the filterless scans. A filter pass (a tree
// leaf's member summaries, the VA+file's approximation file, ADS+'s
// summary array, Stepwise's coefficient levels) leaves ascending candidate
// ids, optionally with their lower bounds; the refine loop reads each
// candidate that the live answer bound still admits from the raw file and
// offers its early-abandoning distance. The summarized trees run it on one
// leaf's survivors (index/leaf_scan.h); the flat methods (VA+file, ADS+,
// Stepwise) run it through RefineCandidates, which deals the candidates
// out in ParallelScan blocks to the query's workers. The scans (UCR-Suite,
// MASS) deal out every series the same way through ScanKnn / ScanRange.
#ifndef HYDRA_CORE_REFINE_H_
#define HYDRA_CORE_REFINE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/knn.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "core/traversal.h"
#include "core/types.h"
#include "io/counted_storage.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace hydra::core {

/// What a filter pass leaves for refinement: strictly ascending ids, each
/// with the squared-distance lower bound that admitted it (or no bounds at
/// all, when the refine loop need not re-check one).
struct Candidates {
  std::vector<SeriesId> ids;
  std::vector<double> bounds;

  void Clear() {
    ids.clear();
    bounds.clear();
  }
  void Add(SeriesId id, double bound) {
    ids.push_back(id);
    bounds.push_back(bound);
  }
};

/// Refines the candidates `ids` (strictly ascending; `bounds` empty or one
/// per id) on the cursor `raw`, under a policy `p` that supplies:
///
///   static constexpr bool kPrecharged;  // the reads were charged in bulk
///                                       // (a tree leaf): ReadPrecharged;
///                                       // else a skip-sequential Read
///   SearchStats& stats();               // the ledger charged
///   bool Admits(double lb) const;       // may a candidate still enter?
///   bool Stop();                        // budget or delta cap reached
///   double AbandonBound() const;        // early-abandoning threshold
///   void Offer(SeriesId id, double d);  // the answer sink
///
/// Each candidate is tested in order: one the live bound no longer admits
/// is skipped for free; otherwise a stop ends the loop before its read.
/// So a budget fires only on a read it refuses, and skipped candidates
/// spend none of it. The ids are the cursor's read plan: over a buffer
/// pool they are read as skip-sequential runs (CountedStorage::SetPlan);
/// in RAM the next candidate is prefetched while the current one is
/// verified. Every call is one skip-sequential pass: its first read costs
/// a seek, whatever the cursor read before.
template <typename Policy>
void RefineLoop(std::span<const SeriesId> ids, std::span<const double> bounds,
                io::CountedStorage& raw, const QueryOrder& order, Policy& p) {
  SearchStats& stats = p.stats();
  raw.SetPlan(ids);
  raw.ResetCursor();
  for (size_t j = 0; j < ids.size(); ++j) {
    if (j + 1 < ids.size()) raw.Prefetch(ids[j + 1]);
    if (!bounds.empty() && !p.Admits(bounds[j])) continue;
    if (p.Stop()) return;
    const SeriesId id = ids[j];
    const SeriesView s = Policy::kPrecharged ? raw.ReadPrecharged(id, &stats)
                                             : raw.Read(id, &stats);
    const double d = order.Distance(s, p.AbandonBound());
    ++stats.distance_computations;
    ++stats.raw_series_examined;
    p.Offer(id, d);
  }
}

/// k-NN refinement of one worker with skip-sequential charging: admits a
/// lower bound below the heap's bound times the plan's bound_scale (the
/// epsilon shrink), abandons at the heap's bound and stops at the plan's
/// raw-series budget.
struct KnnRefine {
  static constexpr bool kPrecharged = false;

  KnnHeap* heap;
  SearchStats* ledger;
  const KnnPlan* plan;

  SearchStats& stats() { return *ledger; }
  bool Admits(double lb) const {
    return lb < heap->Bound() * plan->bound_scale;
  }
  bool Stop() { return plan->RawCapReached(ledger); }
  double AbandonBound() const { return heap->Bound(); }
  void Offer(SeriesId id, double d) { heap->Offer(id, d); }
};

/// Range refinement of one worker with skip-sequential charging: admits
/// and abandons at the fixed r^2 bound (a match at exactly r counts) and
/// never stops early.
struct RangeRefine {
  static constexpr bool kPrecharged = false;

  RangeCollector* collector;
  SearchStats* ledger;

  SearchStats& stats() { return *ledger; }
  bool Admits(double lb) const { return lb <= collector->Bound(); }
  bool Stop() const { return false; }
  double AbandonBound() const { return collector->Bound(); }
  void Offer(SeriesId id, double d) { collector->Offer(id, d); }
};

/// The flat filter-and-refine driver: refines `candidates` over `workers`
/// workers, each with its own cursor of `cursors` and the policy
/// `policy_for(w)` (built once per worker, before the scan, so its state
/// lasts the whole query). The candidates are dealt out in ParallelScan
/// blocks, each one RefineLoop under a `leaf_verify` span; with one worker
/// the whole list is one block, the serial skip-sequential pass.
/// Order-dependent policies (the epsilon shrink, budgets, the delta rule)
/// bind only at width 1, which Execute's pure-exact gate guarantees.
template <typename MakePolicy>
void RefineCandidates(const Candidates& candidates, size_t workers,
                      io::WorkerCursors& cursors, const QueryOrder& order,
                      const MakePolicy& policy_for) {
  using Policy = decltype(policy_for(size_t{0}));
  std::vector<Policy> policies;
  policies.reserve(workers);
  for (size_t w = 0; w < workers; ++w) policies.push_back(policy_for(w));
  const std::span<const SeriesId> ids = candidates.ids;
  const std::span<const double> bounds = candidates.bounds;
  ParallelScan(workers, ids.size(), /*block=*/1024,
               [&](size_t w, size_t begin, size_t end) {
                 HYDRA_OBS_SPAN_ARG("leaf_verify", "series", end - begin);
                 RefineLoop(ids.subspan(begin, end - begin),
                            bounds.empty()
                                ? bounds
                                : bounds.subspan(begin, end - begin),
                            cursors[w], order, policies[w]);
               });
}

/// Range refinement of `candidates` (each passed r^2 already, so they need
/// no bounds) over `data`'s raw file with plan.query_threads workers,
/// answering into `*result`.
inline void RefineRange(const Candidates& candidates, const Dataset& data,
                        const RangePlan& plan, const QueryOrder& order,
                        QueryResult* result) {
  RangeWorkers workers(plan.radius * plan.radius, &result->stats,
                       plan.query_threads);
  io::WorkerCursors cursors(&data, workers.workers());
  RefineCandidates(candidates, workers.workers(), cursors, order,
                   [&](size_t w) {
                     return RangeRefine{&workers.collector(w),
                                        &workers.stats(w)};
                   });
  workers.Finish(&result->neighbors);
}

/// The loop of the filterless scans: every series of `data` in
/// ParallelScan blocks, worker w offering `distance(i, bound)` of series i
/// to its sink `sink_of(w)` (`bound` is the sink's, for early abandoning)
/// until `plan`'s raw budget fires. A scan reads the mapped file in
/// place: one scan-start seek per query, each block charged as one
/// sequential stretch of the series it examined.
template <typename Workers, typename SinkOf, typename Distance>
void ScanSeries(const Dataset& data, const KnnPlan& plan, Workers& workers,
                const SinkOf& sink_of, const Distance& distance) {
  io::ChargeScanStart(&workers.stats(0));
  ParallelScan(workers.workers(), data.size(), /*block=*/256,
               [&](size_t w, size_t begin, size_t end) {
                 auto& sink = sink_of(w);
                 SearchStats& stats = workers.stats(w);
                 size_t i = begin;
                 for (; i < end && !plan.RawCapReached(&stats); ++i) {
                   const double d = distance(i, sink.Bound());
                   ++stats.distance_computations;
                   ++stats.raw_series_examined;
                   sink.Offer(static_cast<SeriesId>(i), d);
                 }
                 io::ChargeSequentialRead(
                     i - begin, data.length() * sizeof(Value), &stats);
               });
}

/// k-NN by ScanSeries over plan.query_threads workers (a budgeted scan is
/// a prefix scan).
template <typename Distance>
QueryResult ScanKnn(const Dataset& data, const KnnPlan& plan,
                    const Distance& distance) {
  util::WallTimer timer;
  QueryResult result;
  KnnWorkers workers(&ScratchKnnHeap(plan.k), &result.stats, plan);
  ScanSeries(data, plan, workers,
             [&](size_t w) -> KnnHeap& { return workers.heap(w); },
             distance);
  workers.Finish(plan.k, &result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

/// Range query by ScanSeries over plan.query_threads workers.
template <typename Distance>
QueryResult ScanRange(const Dataset& data, const RangePlan& plan,
                      const Distance& distance) {
  util::WallTimer timer;
  QueryResult result;
  RangeWorkers workers(plan.radius * plan.radius, &result.stats,
                       plan.query_threads);
  ScanSeries(data, KnnPlan{}, workers,
             [&](size_t w) -> RangeCollector& { return workers.collector(w); },
             distance);
  workers.Finish(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

}  // namespace hydra::core

#endif  // HYDRA_CORE_REFINE_H_
