// Experiment harness implementing the paper's scenarios and measures
// (Section 4.2): Idx, Exact100, Idx+Exact100, Idx+Exact10K (trimmed-mean
// extrapolation), Easy-20/Hard-20, pruning ratio, and TLB.
#ifndef HYDRA_BENCH_HARNESS_H_
#define HYDRA_BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "core/method.h"
#include "gen/workload.h"
#include "io/disk_model.h"
#include "util/status.h"

namespace hydra::bench {

/// Everything measured for one (method, dataset, workload) combination.
struct MethodRun {
  std::string method;
  core::BuildStats build;
  std::vector<core::SearchStats> queries;  // one ledger per query
  std::vector<double> nn_dists_sq;         // 1-NN distance per query
};

/// Builds the method on `data` and answers every workload query (k-NN).
MethodRun RunMethod(core::SearchMethod* method, const core::Dataset& data,
                    const gen::Workload& workload, size_t k = 1);

/// Answers every workload query over an already-built method, executing
/// the same QuerySpec (k-NN kinds only) for each, running up to `threads`
/// queries concurrently (a util::ForkEach on the process pool, so a query
/// that goes wide nests its own scan on the same pool). Per-query entries
/// stay in workload order and the merged `total` ledger accumulates in
/// that order regardless of which thread answered which query, so results
/// are bit-identical to calling Execute serially — except ADS+'s: its
/// queries split the shared tree, so its approximate answers and counters
/// depend on which query split first (its exact answers stay
/// bit-identical). The merged ledger's answer_mode_delivered is the
/// weakest guarantee delivered across the batch.
core::BatchResult SearchKnnBatch(core::SearchMethod* method,
                                 const gen::Workload& workload,
                                 const core::QuerySpec& spec, size_t threads);

/// Parallel counterpart of RunMethod: builds the method on `data`, then
/// answers the workload through SearchKnnBatch with `threads` workers.
/// The returned MethodRun is bit-identical (stats counters, neighbor
/// distances, query order) to the serial RunMethod for every method but
/// ADS+ (see SearchKnnBatch); only the measured cpu_seconds differ run to
/// run (as they do between two serial runs).
MethodRun RunMethodParallel(core::SearchMethod* method,
                            const core::Dataset& data,
                            const gen::Workload& workload, size_t k,
                            size_t threads);

/// Sharded counterpart of RunMethod: builds a shard::ShardedIndex of
/// `shards` per-shard instances of the named method over `data` (per-shard
/// builds fan out over `threads` workers) and answers every workload query
/// through the fan-out/merge path. Queries of the batch run serially —
/// with sharding, the parallelism lives *inside* each query. The
/// returned run's method is the container name ("Sharded[<name>]"); exact
/// answers are bit-identical to the unsharded RunMethod.
MethodRun RunMethodSharded(const std::string& method_name, size_t shards,
                           size_t threads, const core::Dataset& data,
                           const gen::Workload& workload, size_t k = 1);

/// Open-instead-of-build counterpart of RunMethodParallel: rehydrates the
/// index persisted under `index_dir` (SearchMethod::Open) and answers the
/// workload, skipping construction entirely. The returned run's
/// BuildStats carries load_seconds (measured index load time) with
/// cpu_seconds 0 — load time and build time are reported separately,
/// never mixed. Errors (missing/corrupt index, fingerprint mismatch,
/// method without persistence support) surface as a Status; nothing
/// CHECK-aborts on a bad index file.
util::Result<MethodRun> RunMethodFromIndex(core::SearchMethod* method,
                                           const std::string& index_dir,
                                           const core::Dataset& data,
                                           const gen::Workload& workload,
                                           size_t k = 1, size_t threads = 1);

/// Sum over queries of modeled total time (CPU + I/O) on `disk`.
double ExactWorkloadSeconds(const MethodRun& run, const io::DiskModel& disk);

/// The paper's Exact100 scenario: mean modeled query time scaled to a
/// 100-query workload (workloads may run fewer queries for speed).
double Exact100Seconds(const MethodRun& run, const io::DiskModel& disk);

/// The paper's 10,000-query extrapolation: drop the best and worst 5% of
/// queries (5 + 5 on the paper's 100-query workloads), multiply the mean of
/// the rest by 10,000. The trim adapts to the workload size — below 20
/// queries there is nothing to trim at 5%, so the plain mean is used.
/// CHECK-fails on an empty run (an extrapolation over zero queries is
/// meaningless, not zero seconds).
double Extrapolated10KSeconds(const MethodRun& run, const io::DiskModel& disk);

/// Modeled index construction time on `disk`.
double IndexSeconds(const MethodRun& run, const io::DiskModel& disk);

/// Mean pruning ratio over queries: 1 - raw series examined / dataset size.
double MeanPruningRatio(const MethodRun& run, size_t dataset_size);

/// Per-query pruning ratios (box-plot data).
std::vector<double> PruningRatios(const MethodRun& run, size_t dataset_size);

/// Mean modeled seconds over the queries selected by `indices`.
double MeanSecondsOver(const MethodRun& run, const io::DiskModel& disk,
                       const std::vector<size_t>& indices);

/// Indices of the `n` easiest / hardest queries by average pruning ratio
/// across the given runs (the paper's Easy-20 / Hard-20 definition).
std::vector<size_t> EasiestQueries(const std::vector<MethodRun>& runs,
                                   size_t dataset_size, size_t n);
std::vector<size_t> HardestQueries(const std::vector<MethodRun>& runs,
                                   size_t dataset_size, size_t n);

}  // namespace hydra::bench

#endif  // HYDRA_BENCH_HARNESS_H_
