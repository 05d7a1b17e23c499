// Intra-query latency scaling scenario: single-query wall-clock versus
// --query-threads for all ten methods (the trees drain one frontier
// through core::TreeSearch, the filter-and-refine methods deal out their
// candidates through core::RefineCandidates, the scans their series
// through core::ParallelScan). This exhibit is ours, not the paper's — it
// follows the intra-query operator-parallelism line (MESSI/Hercules): N
// workers share one query's work, pruning against one shared
// best-so-far. Exact answers are bit-identical to the serial search at
// every worker count (asserted here per sweep), so any latency win is
// accuracy-free.
//
// Usage: latency_scaling [count] [length] [queries] [--json <path>]
// Writes the machine-readable sweep to BENCH_latency.json by default.
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hydra::bench {
namespace {

bool SameAnswers(const std::vector<std::vector<core::Neighbor>>& a,
                 const std::vector<std::vector<core::Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].dist_sq != b[q][i].dist_sq) {
        return false;
      }
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  const char* json_path = ExtractJsonPath(&argc, argv, "BENCH_latency.json");
  const size_t count =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const size_t length =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 128;
  const size_t queries =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 16;
  HYDRA_CHECK_MSG(count > 0 && length > 0 && queries > 0,
                  "count/length/queries must be positive");

  Banner("Intra-query latency scaling",
         "per-query wall-clock vs --query-threads (serial batch)",
         "sharing one query's work shrinks its latency while cores "
         "last; exact answers stay bit-identical to the serial search "
         "at every worker count");

  const auto data = gen::MakeDataset("synth", count, length, 47);
  const gen::Workload workload = gen::CtrlWorkload(data, queries, 32);
  const size_t hw = util::ThreadPool::HardwareConcurrency();
  std::printf("dataset: %zu x %zu synth, %zu queries, k=10; "
              "hardware_concurrency=%zu\n\n",
              count, length, queries, hw);

  const auto hdd = io::DiskModel::ScaledHdd();
  const auto ssd = io::DiskModel::Ssd();
  util::JsonWriter json;
  json.BeginObject();
  json.Key("exhibit");
  json.String("latency_scaling");
  json.Key("runs");
  json.BeginArray();

  util::Table table({"method", "query_threads", "query_wall_s", "speedup",
                     "identical"});
  bool all_identical = true;
  for (const std::string& name : AllMethodNames()) {
    // One build per method; the sweep only changes the query-time plan.
    auto method = CreateMethod(name, LeafFor(name, count));
    MethodRun base_run;
    base_run.method = method->name();
    base_run.build = method->Build(data);

    // The serial search's answers (and its latency as the 1x line).
    std::vector<std::vector<core::Neighbor>> reference;
    double base_wall = 0.0;
    for (const size_t query_threads : {1, 2, 4, 8}) {
      core::QuerySpec spec = core::QuerySpec::Knn(10);
      spec.query_threads = query_threads;
      MethodRun run = base_run;
      util::WallTimer query_timer;
      bool identical = true;
      std::vector<std::vector<core::Neighbor>> answers;
      answers.reserve(workload.queries.size());
      for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
        core::QueryResult r = method->Execute(workload.queries[qi], spec);
        run.queries.push_back(r.stats);
        run.nn_dists_sq.push_back(r.neighbors.front().dist_sq);
        answers.push_back(std::move(r.neighbors));
      }
      const double query_wall = query_timer.Seconds();
      if (query_threads == 1) {
        reference = answers;
        base_wall = query_wall;
      } else {
        // Bit-identity caveat: exact ties at the k-th distance break by
        // id in the merge but first-visited in a single search; on
        // this continuous random-walk data such ties are measure-zero.
        identical = SameAnswers(answers, reference);
        all_identical = all_identical && identical;
      }
      table.AddRow({name,
                    util::Table::Num(static_cast<double>(query_threads), 0),
                    util::Table::Num(query_wall, 3),
                    util::Table::Num(base_wall / query_wall, 2),
                    identical ? "yes" : "NO"});
      JsonRunRecord(&json, run, /*shards=*/0, query_threads, data, hdd,
                    ssd);
    }
  }
  table.Print(
      "intra-query latency scaling (speedup = query_wall_1 / _N)");
  if (hw < 2) {
    std::printf("\nnote: this machine exposes %zu core(s); the workers "
                "share the query's work but cannot overlap, so "
                "measured speedup is ~1.0x here — multi-core hardware is "
                "needed for the latency exhibit. (The bit-identity column "
                "is hardware-independent.)\n", hw);
  }

  json.EndArray();
  json.EndObject();
  if (json_path != nullptr) {
    const util::Status written = json.WriteTo(json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.message().c_str());
      return 1;
    }
    std::printf("\nwrote machine-readable sweep to %s\n", json_path);
  }
  // Divergence fails the run *after* the table and JSON are out, so the
  // offending row is visible instead of dying mid-sweep.
  if (!all_identical) {
    std::fprintf(stderr,
                 "error: parallel-traversal answers diverged from the "
                 "serial run (see the 'identical' column)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hydra::bench

int main(int argc, char** argv) { return hydra::bench::Run(argc, argv); }
