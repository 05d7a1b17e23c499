// Intra-query latency scaling scenario: per-batch wall-clock versus
// --query-threads for all ten methods (the trees expand their frontier on
// the calling thread and deal out its leaves through core::TreeSearch, the
// filter-and-refine methods their candidates through
// core::RefineCandidates, the scans their series; all three run on
// core::ParallelScan over the process pool). This exhibit is ours, not
// the paper's — it follows the intra-query operator-parallelism line
// (MESSI/Hercules): N workers share one query's work, pruning against one
// shared best-so-far. Exact answers are bit-identical to the serial search
// at every worker count (asserted here on every pass), so any latency win
// is accuracy-free.
//
// Each point repeats the query batch until at least kMinRepeatWall of wall
// has passed and takes the mean batch wall of that repeat; it reports the
// median of kRepeats repeats and their spread (max - min), so two builds
// can be ranked by points whose medians differ by more than the spread.
//
// Usage: latency_scaling [count] [length] [queries] [--json <path>]
// Writes the machine-readable sweep to BENCH_latency.json by default.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hydra::bench {
namespace {

constexpr double kMinRepeatWall = 0.25;  // seconds of batches per repeat
constexpr size_t kRepeats = 5;

using Answers = std::vector<std::vector<core::Neighbor>>;

bool SameAnswers(const Answers& a, const Answers& b) {
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

/// One point of the sweep: the median and spread of the repeats' mean
/// batch walls, the first batch's ledger, and the answers of every batch
/// checked against `reference` (taken from the first batch when empty).
struct Point {
  double median = 0.0;
  double spread = 0.0;
  MethodRun run;
  bool identical = true;
};

Point Measure(core::SearchMethod* method, const gen::Workload& workload,
              const core::QuerySpec& spec, const MethodRun& base_run,
              Answers* reference) {
  Point point;
  point.run = base_run;
  std::vector<double> walls;
  for (size_t repeat = 0; repeat < kRepeats; ++repeat) {
    util::WallTimer timer;
    size_t batches = 0;
    do {
      Answers answers;
      answers.reserve(workload.queries.size());
      for (size_t q = 0; q < workload.queries.size(); ++q) {
        core::QueryResult r = method->Execute(workload.queries[q], spec);
        if (repeat == 0 && batches == 0) {
          point.run.queries.push_back(r.stats);
          point.run.nn_dists_sq.push_back(r.neighbors.front().dist_sq);
        }
        answers.push_back(std::move(r.neighbors));
      }
      // Bit-identity caveat: exact ties at the k-th distance break by id
      // in the merge but first-visited in a single search; on this
      // continuous random-walk data such ties are measure-zero.
      if (reference->empty()) *reference = answers;
      point.identical = point.identical && SameAnswers(answers, *reference);
      ++batches;
    } while (timer.Seconds() < kMinRepeatWall);
    walls.push_back(timer.Seconds() / static_cast<double>(batches));
  }
  std::sort(walls.begin(), walls.end());
  point.median = walls[walls.size() / 2];
  point.spread = walls.back() - walls.front();
  return point;
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
         "per-batch wall-clock vs --query-threads (serial batch)",
         "none (the paper answers each query on one thread). Each point "
         "repeats the batch for at least 0.25 s, 5 times; query_wall_s is "
         "the median mean-batch wall and spread_s the max - min of the 5, "
         "so read a speedup only where the medians differ by more than "
         "the spreads");

  const auto data = gen::MakeDataset("synth", count, length, 47);
  const gen::Workload workload = gen::CtrlWorkload(data, queries, 32);
  const size_t hw = util::ThreadPool::HardwareConcurrency();
  std::printf("dataset: %zu x %zu synth, %zu queries, k=10; "
              "cpus=%zu\n\n",
              count, length, queries, hw);

  const auto hdd = io::DiskModel::ScaledHdd();
  const auto ssd = io::DiskModel::Ssd();
  util::JsonWriter json;
  json.BeginObject();
  json.Key("exhibit");
  json.String("latency_scaling");
  json.Key("min_repeat_wall_s");
  json.Double(kMinRepeatWall);
  json.Key("repeats");
  json.Uint(kRepeats);
  json.Key("runs");
  json.BeginArray();

  util::Table table({"method", "query_threads", "query_wall_s", "spread_s",
                     "speedup", "identical"});
  bool all_identical = true;
  for (const std::string& name : AllMethodNames()) {
    // One build per method; the sweep only changes the query-time plan.
    auto method = CreateMethod(name, LeafFor(name, count));
    MethodRun base_run;
    base_run.method = method->name();
    base_run.build = method->Build(data);

    // The serial search's answers (and its latency as the 1x line).
    Answers reference;
    double base_wall = 0.0;
    for (const size_t query_threads : {1, 2, 4, 8}) {
      core::QuerySpec spec = core::QuerySpec::Knn(10);
      spec.query_threads = query_threads;
      const Point point =
          Measure(method.get(), workload, spec, base_run, &reference);
      if (query_threads == 1) base_wall = point.median;
      all_identical = all_identical && point.identical;
      table.AddRow({name,
                    util::Table::Num(static_cast<double>(query_threads), 0),
                    util::Table::Num(point.median, 4),
                    util::Table::Num(point.spread, 4),
                    util::Table::Num(base_wall / point.median, 2),
                    point.identical ? "yes" : "NO"});
      JsonRunRecord(&json, point.run, /*shards=*/0, query_threads, data, hdd,
                    ssd, {{"query_wall_s", point.median},
                          {"query_wall_spread_s", point.spread}});
    }
  }
  table.Print(
      "intra-query latency scaling (speedup = query_wall_1 / _N)");
  if (hw < 2) {
    std::printf("\nnote: this process may run on %zu CPU, so its query "
                "workers take turns rather than overlap.\n", hw);
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
