// Out-of-core I/O scaling scenario: measured buffer-pool traffic and
// query wall-clock versus pool budget, for the summarized trees (DSTree,
// iSAX2+, SFA trie), the skip-sequential ADS+ and the R*-tree. This
// exhibit is ours, not the paper's: their experiments hold the dataset
// either fully in memory or fully on disk, while the pool sweeps the
// space between. Every method reads the series it verifies as run preads:
// the summarized trees and ADS+ plan their filter survivors into runs,
// and the R*-tree reads each surviving leaf entry as a run of one series.
// The pool caches no pages, so the traffic is the same at every budget,
// with no hits and no evictions; the budget only caps the run scratch
// lent to readers, and this serial sweep's one reader fits in 1MB.
// Answers are asserted bit-identical to the in-RAM backend at every
// budget.
//
// Usage: io_scaling [count] [length] [queries] [--json <path>]
// Writes the machine-readable sweep to BENCH_storage.json by default.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "io/series_file.h"
#include "storage/backend.h"
#include "util/check.h"
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
  const char* json_path = ExtractJsonPath(&argc, argv, "BENCH_storage.json");
  const size_t count =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const size_t length =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 128;
  const size_t queries =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 24;
  HYDRA_CHECK_MSG(count > 0 && length > 0 && queries > 0,
                  "count/length/queries must be positive");

  Banner("I/O scaling",
         "measured pool traffic + query seconds vs pool budget (mmap "
         "backend)",
         "every method reads its verified series as runs and the pool "
         "caches no pages, so the traffic ignores the budget, without "
         "changing a single answer");

  const auto data = gen::MakeDataset("synth", count, length, 41);
  const gen::Workload workload = gen::CtrlWorkload(data, queries, 42);
  const std::string path = "io_scaling_data.bin";
  {
    const util::Status written = io::WriteSeriesFile(path, data);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.message().c_str());
      return 1;
    }
  }
  const double data_mb = static_cast<double>(count) *
                         static_cast<double>(length) * sizeof(core::Value) /
                         (1 << 20);
  std::printf("dataset: %zu x %zu synth (%.1f MB on disk), %zu queries, "
              "k=10\n\n", count, length, data_mb, queries);

  util::JsonWriter json;
  json.BeginObject();
  json.Key("exhibit");
  json.String("io_scaling");
  json.Key("dataset_series");
  json.Uint(count);
  json.Key("series_length");
  json.Uint(length);
  json.Key("runs");
  json.BeginArray();

  util::Table table({"method", "pool_mb", "query_wall_s",
                     core::CounterName(&core::SearchStats::pool_misses),
                     core::CounterName(&core::SearchStats::pool_bytes_read),
                     core::CounterName(&core::SearchStats::pool_hits),
                     "hit_rate", "evictions", "modeled_seeks",
                     "identical"});
  bool all_identical = true;
  for (const std::string name :
       {"DSTree", "iSAX2+", "SFA", "ADS+", "R*-tree"}) {
    // The in-RAM reference answers: the identity baseline for every
    // budget (ADS+ adapts per query, so each sweep point rebuilds).
    std::vector<std::vector<core::Neighbor>> reference;
    {
      auto method = CreateMethod(name, LeafFor(name, count));
      method->Build(data);
      for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
        const core::SeriesView query = workload.queries[qi];
        reference.push_back(
            method->Execute(query, core::QuerySpec::Knn(10)).neighbors);
      }
    }
    for (const size_t pool_mb : {1, 4, 16, 64}) {
      storage::StorageOptions options;
      options.backend = storage::StorageBackend::kMmap;
      options.pool.budget_bytes = pool_mb << 20;
      auto opened = storage::StorageHandle::Open(path, "synth", options);
      if (!opened.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     opened.status().message().c_str());
        return 1;
      }
      const storage::StorageHandle stored = std::move(opened).value();

      auto method = CreateMethod(name, LeafFor(name, count));
      method->Build(stored.dataset());
      core::SearchStats total;
      std::vector<std::vector<core::Neighbor>> answers;
      answers.reserve(workload.queries.size());
      util::WallTimer query_timer;
      for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
        const core::SeriesView query = workload.queries[qi];
        core::QueryResult r =
            method->Execute(query, core::QuerySpec::Knn(10));
        total.Add(r.stats);
        answers.push_back(std::move(r.neighbors));
      }
      const double query_wall = query_timer.Seconds();
      const bool identical = SameAnswers(answers, reference);
      all_identical = all_identical && identical;
      const int64_t lookups = total.pool_hits + total.pool_misses;
      const double hit_rate =
          lookups == 0 ? 0.0
                       : static_cast<double>(total.pool_hits) /
                             static_cast<double>(lookups);
      table.AddRow({name, util::Table::Num(static_cast<double>(pool_mb), 0),
                    util::Table::Num(query_wall, 3),
                    util::Table::Num(static_cast<double>(total.pool_misses),
                                     0),
                    util::Table::Num(
                        static_cast<double>(total.pool_bytes_read), 0),
                    util::Table::Num(static_cast<double>(total.pool_hits),
                                     0),
                    util::Table::Num(hit_rate, 3),
                    util::Table::Num(static_cast<double>(
                                         total.pool_evictions), 0),
                    util::Table::Num(static_cast<double>(total.random_seeks),
                                     0),
                    identical ? "yes" : "NO"});

      json.BeginObject();
      json.Key("method");
      json.String(name);
      json.Key("pool_mb");
      json.Uint(pool_mb);
      json.Key("queries");
      json.Uint(workload.queries.size());
      json.Key("query_wall_seconds");
      json.Double(query_wall);
      json.Key("identical");
      json.Bool(identical);
      // The ledger split by kind: measured pool I/O vs the modeled ledger.
      const auto put_counters = [&](core::CounterKind kind) {
        for (const core::LedgerCounter& counter : core::kLedgerCounters) {
          if (counter.kind != kind) continue;
          json.Key(counter.name);
          json.Int(total.*counter.member);
        }
      };
      json.Key("measured");
      json.BeginObject();
      put_counters(core::CounterKind::kMeasured);
      json.Key("hit_rate");
      json.Double(hit_rate);
      json.EndObject();
      json.Key("modeled");
      json.BeginObject();
      put_counters(core::CounterKind::kModeled);
      json.EndObject();
      json.EndObject();
    }
  }
  table.Print("I/O scaling (modeled_seeks is budget-invariant; only the "
              "measured columns move)");

  json.EndArray();
  json.EndObject();
  std::remove(path.c_str());
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
                 "error: mmap answers diverged from the in-RAM backend "
                 "(see the 'identical' column)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hydra::bench

int main(int argc, char** argv) { return hydra::bench::Run(argc, argv); }
