#include "bench/harness.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/check.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace hydra::bench {

MethodRun RunMethod(core::SearchMethod* method, const core::Dataset& data,
                    const gen::Workload& workload, size_t k) {
  // The serial path is the parallel path at one thread (which never
  // touches the process pool); keeping a single implementation is what
  // makes the bit-identical guarantee trivially true.
  return RunMethodParallel(method, data, workload, k, /*threads=*/1);
}

core::BatchResult SearchKnnBatch(core::SearchMethod* method,
                                 const gen::Workload& workload,
                                 const core::QuerySpec& spec, size_t threads) {
  HYDRA_CHECK(method != nullptr);
  HYDRA_CHECK_MSG(threads >= 1, "SearchKnnBatch needs at least one thread");
  HYDRA_CHECK_MSG(spec.kind == core::QueryKind::kKnn,
                  "SearchKnnBatch executes k-NN specs");
  const size_t count = workload.queries.size();
  core::BatchResult batch;
  batch.queries.resize(count);

  // Each worker answers whole queries and writes to its own slot; no
  // state is shared between queries beyond the method's index (which only
  // ADS+ writes, under its own lock). The width never exceeds the query
  // count, and one thread is the plain loop in workload order.
  batch.threads_used = std::max<size_t>(1, std::min(threads, count));
  util::ForkEach(threads, count, [&](size_t q) {
    batch.queries[q] = method->Execute(workload.queries[q], spec);
  });
  // Merge the per-query ledgers in workload order — deterministic no
  // matter which thread answered which query.
  for (const core::QueryResult& r : batch.queries) {
    // Budgets may legitimately truncate an answer; everything else must
    // return k (or collection-size) candidates.
    HYDRA_CHECK(!r.neighbors.empty() || spec.has_budget());
    batch.total.Add(r.stats);
  }
  return batch;
}

MethodRun RunMethodParallel(core::SearchMethod* method,
                            const core::Dataset& data,
                            const gen::Workload& workload, size_t k,
                            size_t threads) {
  HYDRA_CHECK(method != nullptr);
  MethodRun run;
  run.method = method->name();
  run.build = method->Build(data);
  const core::BatchResult batch =
      SearchKnnBatch(method, workload, core::QuerySpec::Knn(k), threads);
  run.queries.reserve(batch.queries.size());
  run.nn_dists_sq.reserve(batch.queries.size());
  for (const core::QueryResult& r : batch.queries) {
    run.queries.push_back(r.stats);
    run.nn_dists_sq.push_back(r.neighbors.front().dist_sq);
  }
  return run;
}

double ExactWorkloadSeconds(const MethodRun& run, const io::DiskModel& disk) {
  double total = 0.0;
  for (const auto& q : run.queries) total += disk.QueryTotalSeconds(q);
  return total;
}

double Exact100Seconds(const MethodRun& run, const io::DiskModel& disk) {
  if (run.queries.empty()) return 0.0;
  return ExactWorkloadSeconds(run, disk) /
         static_cast<double>(run.queries.size()) * 100.0;
}

double Extrapolated10KSeconds(const MethodRun& run,
                              const io::DiskModel& disk) {
  HYDRA_CHECK_MSG(!run.queries.empty(),
                  "Extrapolated10KSeconds over zero queries is meaningless");
  std::vector<double> seconds(run.queries.size());
  for (size_t i = 0; i < run.queries.size(); ++i) {
    seconds[i] = disk.QueryTotalSeconds(run.queries[i]);
  }
  // The paper drops the 5 best and 5 worst of 100 — 5% per side. Keep that
  // fraction for other workload sizes; below 20 queries a 5% trim rounds
  // to nothing, so the plain mean is used (n/20 < n/2 always leaves a
  // non-empty middle, so TrimmedMean's precondition holds by construction).
  const size_t trim = seconds.size() / 20;
  const double mean =
      trim == 0 ? util::Mean(seconds) : util::TrimmedMean(seconds, trim);
  return mean * 10000.0;
}

double IndexSeconds(const MethodRun& run, const io::DiskModel& disk) {
  return disk.BuildTotalSeconds(run.build);
}

std::vector<double> PruningRatios(const MethodRun& run, size_t dataset_size) {
  std::vector<double> ratios(run.queries.size());
  for (size_t i = 0; i < run.queries.size(); ++i) {
    ratios[i] = 1.0 - static_cast<double>(run.queries[i].raw_series_examined) /
                          static_cast<double>(dataset_size);
  }
  return ratios;
}

double MeanPruningRatio(const MethodRun& run, size_t dataset_size) {
  const auto ratios = PruningRatios(run, dataset_size);
  return util::Mean(ratios);
}

double MeanSecondsOver(const MethodRun& run, const io::DiskModel& disk,
                       const std::vector<size_t>& indices) {
  if (indices.empty()) return 0.0;
  double total = 0.0;
  for (const size_t i : indices) {
    total += disk.QueryTotalSeconds(run.queries[i]);
  }
  return total / static_cast<double>(indices.size());
}

namespace {

std::vector<size_t> RankByMeanPruning(const std::vector<MethodRun>& runs,
                                      size_t dataset_size, size_t n,
                                      bool easiest) {
  HYDRA_CHECK(!runs.empty());
  const size_t queries = runs.front().queries.size();
  std::vector<double> mean_ratio(queries, 0.0);
  for (const MethodRun& run : runs) {
    HYDRA_CHECK(run.queries.size() == queries);
    const auto ratios = PruningRatios(run, dataset_size);
    for (size_t q = 0; q < queries; ++q) mean_ratio[q] += ratios[q];
  }
  std::vector<size_t> order(queries);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return easiest ? mean_ratio[a] > mean_ratio[b]
                   : mean_ratio[a] < mean_ratio[b];
  });
  order.resize(std::min(n, order.size()));
  return order;
}

}  // namespace

std::vector<size_t> EasiestQueries(const std::vector<MethodRun>& runs,
                                   size_t dataset_size, size_t n) {
  return RankByMeanPruning(runs, dataset_size, n, /*easiest=*/true);
}

std::vector<size_t> HardestQueries(const std::vector<MethodRun>& runs,
                                   size_t dataset_size, size_t n) {
  return RankByMeanPruning(runs, dataset_size, n, /*easiest=*/false);
}

}  // namespace hydra::bench
