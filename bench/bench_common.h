// Shared configuration for the figure/table bench binaries. The paper's
// datasets are 25GB-1TB; these benches run laptop-scale datasets through
// the instrumented I/O ledger and report modeled HDD/SSD times alongside
// measured CPU (see DESIGN.md, "Substitutions").
#ifndef HYDRA_BENCH_BENCH_COMMON_H_
#define HYDRA_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>

#include "bench/harness.h"
#include "bench/registry.h"
#include "gen/random_walk.h"
#include "gen/realistic.h"
#include "gen/workload.h"
#include "io/disk_model.h"
#include "util/json.h"
#include "util/table.h"

namespace hydra::bench {

/// Leaf threshold heuristic mirroring the paper's tuned ratios (leaf size
/// grows with the collection; SFA's optimal leaf is ~10x the others').
inline size_t DefaultLeaf(size_t count) {
  return std::clamp<size_t>(count / 64, 64, 1024);
}
inline size_t SfaLeaf(size_t count) { return DefaultLeaf(count) * 16; }

inline size_t LeafFor(const std::string& method, size_t count) {
  return method == "SFA" ? SfaLeaf(count) : DefaultLeaf(count);
}

/// Prints the standard bench banner.
inline void Banner(const char* exhibit, const char* what,
                   const char* paper_expectation) {
  std::printf("=====================================================\n");
  std::printf("%s — %s\n", exhibit, what);
  std::printf("Paper expectation: %s\n", paper_expectation);
  std::printf("=====================================================\n");
}

/// Extracts a `--json <path>` pair from (argc, argv), returning the path
/// (or `default_path` when the flag is absent; pass nullptr for "no JSON
/// unless asked"). The two tokens are removed from argv so the bench's
/// positional argument parsing stays untouched. A valueless trailing
/// `--json` exits 1 with an error — silently dropping it would either
/// skip the JSON output or leave the flag to be misparsed as a
/// positional argument.
inline const char* ExtractJsonPath(int* argc, char** argv,
                                   const char* default_path) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") != 0) continue;
    if (i + 1 >= *argc) {
      std::fprintf(stderr, "error: --json needs a path\n");
      std::exit(1);
    }
    const char* path = argv[i + 1];
    for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
    *argc -= 2;
    return path;
  }
  return default_path;
}

/// Serializes one measured run as a flat JSON record: identity (method,
/// dataset shape, shards, threads), measured build/load/query seconds,
/// modeled HDD/SSD query seconds, and the summed query ledger — the
/// machine-readable counterpart of every bench table row, so perf can be
/// tracked across commits without scraping stdout. `extra` adds measured
/// figures of the row (key, seconds) before the ledger.
inline void JsonRunRecord(
    util::JsonWriter* json, const MethodRun& run, size_t shards,
    size_t threads, const core::Dataset& data, const io::DiskModel& hdd,
    const io::DiskModel& ssd,
    std::initializer_list<std::pair<const char*, double>> extra = {}) {
  core::SearchStats total;
  for (const core::SearchStats& q : run.queries) total.Add(q);
  json->BeginObject();
  json->Key("method");
  json->String(run.method);
  json->Key("dataset_series");
  json->Uint(data.size());
  json->Key("series_length");
  json->Uint(data.length());
  json->Key("shards");
  json->Uint(shards);
  json->Key("threads");
  json->Uint(threads);
  json->Key("queries");
  json->Uint(run.queries.size());
  json->Key("build_cpu_seconds");
  json->Double(run.build.cpu_seconds);
  json->Key("load_seconds");
  json->Double(run.build.load_seconds);
  json->Key("query_cpu_seconds");
  json->Double(total.cpu_seconds);
  json->Key("query_hdd_seconds");
  json->Double(ExactWorkloadSeconds(run, hdd));
  json->Key("query_ssd_seconds");
  json->Double(ExactWorkloadSeconds(run, ssd));
  for (const auto& [key, value] : extra) {
    json->Key(key);
    json->Double(value);
  }
  json->Key("stats");
  json->BeginObject();
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    json->Key(counter.name);
    json->Int(total.*counter.member);
  }
  json->EndObject();
  json->EndObject();
}

}  // namespace hydra::bench

#endif  // HYDRA_BENCH_BENCH_COMMON_H_
