// Accuracy-versus-time exhibit (companion study "Return of the Lernaean
// Hydra", Figures 5-7): sweep epsilon over the epsilon-capable methods and
// report recall@k, the actual approximation error, and modeled SSD I/O
// time against the exact (epsilon = 0) search — the headline tradeoff that
// makes one index fleet serve both interactive (approximate) and analytic
// (exact) traffic. Every column is computed from deterministic counters, so
// two runs print the same table.
//
// Usage: fig_accuracy_vs_time [count] [length] [queries] [k]
// Defaults reproduce the laptop-scale exhibit; CI runs a smoke config.
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "core/method.h"
#include "core/query_spec.h"

namespace hydra::bench {
namespace {

void Run(size_t count, size_t length, size_t queries, size_t k) {
  Banner("Accuracy vs time",
         "recall@k / approximation error / time as epsilon grows",
         "epsilon-approximate answers are close to exact for small epsilon "
         "and get orders of magnitude cheaper as epsilon grows; ng is the "
         "cheap no-guarantee floor");

  const auto data = gen::RandomWalkDataset(count, length, 4242);
  const auto workload = gen::CtrlWorkload(data, queries, 4243);
  const auto ssd = io::DiskModel::Ssd();

  // Ground truth once per query.
  std::vector<std::vector<core::Neighbor>> truth(workload.queries.size());
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    truth[q] = core::BruteForceKnn(data, workload.queries[q], k);
  }

  const std::vector<double> epsilons = {0.0, 0.1, 0.5, 1.0, 2.0, 5.0};
  util::Table table({"method", "mode", "recall@k", "approx_err",
                     "raw_frac", "ssd_s_per_q", "speedup_vs_exact"});
  for (const std::string& name : EpsilonCapableNames()) {
    const core::MethodTraits traits =
        CreateMethod(name, LeafFor(name, count))->traits();
    // Every sweep runs on a fresh build: an adaptive method (ADS+) would
    // otherwise let every later row ride on the adaptation the exact
    // baseline paid for, overstating the approximate speedups. Build is
    // deterministic, so the other methods' rows do not depend on it.
    // A negative `exact_seconds` marks the exact baseline row itself.
    auto sweep = [&](const std::string& label, const core::QuerySpec& spec,
                     double exact_seconds) -> double {
      auto method = CreateMethod(name, LeafFor(name, count));
      method->Build(data);
      double recall = 0.0;
      double err = 0.0;
      double seconds = 0.0;
      int64_t raw = 0;
      for (size_t q = 0; q < workload.queries.size(); ++q) {
        const core::QueryResult r =
            method->Execute(workload.queries[q], spec);
        recall += core::RecallAtK(r.neighbors, truth[q], k);
        err += core::ApproximationError(r.neighbors, truth[q]);
        seconds += ssd.QueryIoSeconds(r.stats);
        raw += r.stats.raw_series_examined;
      }
      const double n = static_cast<double>(workload.queries.size());
      const double per_query = seconds / n;
      const double base = exact_seconds < 0.0 ? per_query : exact_seconds;
      // The M-tree is memory-resident: no modeled I/O, no ratio.
      table.AddRow(
          {name, label, util::Table::Num(recall / n, 3),
           util::Table::Num(err / n, 3),
           util::Table::Num(static_cast<double>(raw) /
                                (n * static_cast<double>(data.size())),
                            4),
           util::Table::Num(per_query, 5),
           base > 0.0 && per_query > 0.0
               ? util::Table::Num(base / per_query, 1)
               : std::string("n/a")});
      return per_query;
    };

    const double exact_seconds =
        sweep("exact", core::QuerySpec::Knn(k), -1.0);
    for (const double eps : epsilons) {
      if (eps == 0.0) continue;  // identical to exact by contract
      sweep("eps=" + util::Table::Num(eps, 1),
            core::QuerySpec::Epsilon(k, eps), exact_seconds);
    }
    if (traits.supports_delta_epsilon) {
      sweep("d-eps=1.0,d=0.1", core::QuerySpec::DeltaEpsilon(k, 1.0, 0.1),
            exact_seconds);
    }
    if (traits.supports_ng) {
      sweep("ng", core::QuerySpec::NgApprox(k), exact_seconds);
    }
  }
  table.Print("Accuracy vs time: recall@" + std::to_string(k) +
              ", approximation error, modeled SSD seconds per query");
}

}  // namespace
}  // namespace hydra::bench

int main(int argc, char** argv) {
  size_t count = 20000;
  size_t length = 256;
  size_t queries = 30;
  size_t k = 10;
  if (argc > 1) count = static_cast<size_t>(std::atoll(argv[1]));
  if (argc > 2) length = static_cast<size_t>(std::atoll(argv[2]));
  if (argc > 3) queries = static_cast<size_t>(std::atoll(argv[3]));
  if (argc > 4) k = static_cast<size_t>(std::atoll(argv[4]));
  hydra::bench::Run(count, length, queries, k);
  return 0;
}
