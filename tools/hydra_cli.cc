// hydra — command-line front end for the library.
//
//   hydra gen <family> <count> <length> <seed> <out.bin>
//       Generate a dataset (synth|seismic|astro|sald|deep) to a series file.
//   hydra build <data.bin> <method> <index-dir>
//       Build the method's index once and persist it under <index-dir>
//       (a versioned, checksummed container; see docs/ARCHITECTURE.md).
//   hydra query <data.bin> <method> <k> [queries]
//       k-NN of generated probe queries against a series file. Defaults to
//       exact answers; --mode selects a relaxed guarantee (see below).
//       --index <dir> opens the persisted index instead of rebuilding
//       (the paper's economics: construction is paid once, amortized over
//       every later query process).
//   hydra range <data.bin> <method> <radius> [queries]
//       Exact r-range queries; accepts --index <dir> like `query`.
//   hydra compare <data.bin> [queries]
//       Run the best six methods and print the scenario table.
//   hydra serve <data.bin> <method> [--index <dir>] [--port P]
//               [--serve-threads N] [--cache-mb M] [--max-inflight Q]
//       Long-lived query daemon: builds (or opens, with --index) the
//       method once, then answers concurrent clients over the framed
//       binary protocol on 127.0.0.1:P (src/serve). SIGINT/SIGTERM
//       drains in-flight queries and exits; SIGHUP re-opens the index
//       without dropping the listener. Accepts --shards like `query`.
//   hydra ping [--port P]
//       Round-trip a ping frame to a running daemon.
//   hydra queryd <data.bin> <k> [queries] [--port P] [spec flags]
//       Send the same probe workload `hydra query` runs to a daemon and
//       print the answers in the identical format (the smoke script
//       diffs the two). The data file is read only to derive the probes.
//   hydra stats [--port P] [--full]
//       Fetch and print the daemon's STATS document (JSON: uptime, QPS,
//       bucketed latency percentiles, cache counters, merged search
//       ledger, slow-query flight records). --full instead prints the
//       daemon's whole metrics registry as plain text, one metric per
//       line.
//   hydra methods
//       Print the method traits matrix (quality modes, concurrency,
//       persistence).
//   hydra kernels [names]
//       Print the SIMD kernel-set table (compiled sets, CPU support, the
//       active dispatch choice); `names` lists the supported set names one
//       per line for scripting (the CI dispatch matrix loops over it).
//
// `build`, `query`, `range`, and `compare` accept --kernels <set>: force
// the distance/lower-bound kernel set (scalar|portable|avx2|avx512)
// instead of the best-supported default. The HYDRA_KERNELS environment
// variable does the same for any process using the library; the flag wins
// when both are given. Unknown or CPU-unsupported names exit 1 listing
// the supported sets.
//
// `query` and `compare` accept --threads N anywhere after the command:
// queries of one batch run concurrently when the method supports it
// (results are identical to the serial run; see docs/ARCHITECTURE.md).
//
// `build`, `query`, and `range` accept --shards N: the collection is
// partitioned into N contiguous shards, each carrying a full index of the
// method; builds and queries fan out across shards and answers merge back
// to global ids, identical to the unsharded method. With --shards,
// --threads sets the fan-out width (the batch runs serially — the
// parallelism lives inside each query). Unshardable methods (the scans)
// are refused with the traits-derived reason.
//
// `query` and `range` accept --query-threads N: N workers drain one
// query's traversal frontier cooperatively (the shared engine in
// src/core/traversal.h). Only the five tree indexes and ADS+ advertise
// the trait (`hydra methods`, intra-query column); others are refused
// with the traits-derived reason. Exact k-NN and range answers are bit-identical
// to the serial traversal at any worker count; approximate and budgeted
// plans keep their traversal serial (their answers depend on visit
// order), which is reported as a note. Composes with --shards: every
// shard's workers share one cross-shard bound.
//
// `build`, `query`, `range`, and `serve` accept --trace <path>: record
// per-query phase spans (execute, traversal, leaf verification, shard
// fan-out, buffer-pool IO; per-request spans under serve) and write them
// as Chrome trace-event JSON when the command exits — open the file at
// ui.perfetto.dev or chrome://tracing. An unwritable path exits 1 before
// any work is done.
//
// `query` additionally accepts the QuerySpec flags:
//   --mode exact|ng|epsilon|delta-epsilon   quality guarantee requested
//   --epsilon X      relative error bound (epsilon / delta-epsilon modes)
//   --delta X        probability the bound holds, in (0,1] (delta-epsilon)
//   --max-leaves N   budget: stop after N leaf visits
//   --max-raw N      budget: stop after N raw series examinations
// A mode the chosen method does not advertise is rejected up front with
// the traits-derived reason — never silently answered exactly.
#include <csignal>
#include <cstring>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench/harness.h"
#include "bench/registry.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "core/simd/kernels.h"
#include "gen/emitter.h"
#include "gen/realistic.h"
#include "gen/workload.h"
#include "io/disk_model.h"
#include "io/series_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/sharded_index.h"
#include "storage/backend.h"
#include "util/table.h"
#include "util/timer.h"

namespace hydra {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  hydra gen <family> <count> <length> <seed> <out.bin>\n"
               "  hydra build <data.bin> <method> <index-dir> [--shards N] "
               "[--threads N]\n"
               "  hydra query <data.bin> <method> <k> [queries=10] "
               "[--threads N]\n"
               "              [--index <dir>] [--shards N] "
               "[--query-threads N]\n"
               "              [--storage ram|mmap] [--pool-mb M]\n"
               "              [--mode exact|ng|epsilon|delta-epsilon] "
               "[--epsilon X]\n"
               "              [--delta X] [--max-leaves N] [--max-raw N]\n"
               "  hydra range <data.bin> <method> <radius> [queries=10] "
               "[--index <dir>] [--shards N] [--threads N] "
               "[--query-threads N]\n"
               "  hydra compare <data.bin> [queries=10] [--threads N]\n"
               "  hydra serve <data.bin> <method> [--index <dir>] "
               "[--shards N] [--port P]\n"
               "              [--serve-threads N] [--cache-mb M] "
               "[--max-inflight Q]\n"
               "  hydra ping [--port P]\n"
               "  hydra queryd <data.bin> <k> [queries=10] [--port P] "
               "[spec flags]\n"
               "  hydra stats [--port P] [--full]\n"
               "  hydra methods\n"
               "  hydra kernels [names]\n"
               "\n"
               "--kernels <set> forces the distance/lower-bound kernel set "
               "(see: hydra\n"
               "kernels) on build/query/range/compare; HYDRA_KERNELS=<set> "
               "does the same\n"
               "for any command (the flag wins when both are given).\n"
               "\n"
               "--shards N partitions the collection into N contiguous "
               "shards built and\n"
               "searched independently (answers are identical to the "
               "unsharded method);\n"
               "with --shards, --threads sets the per-query fan-out "
               "workers instead of\n"
               "the batch concurrency. A sharded index persists as one "
               "container whose\n"
               "shard count is fixed at build time; open it with the same "
               "--shards flag.\n"
               "\n"
               "--query-threads N answers each query with N workers "
               "draining one shared\n"
               "traversal frontier (tree methods only; exact and range "
               "answers are\n"
               "bit-identical to the serial traversal). Composes with "
               "--shards: every\n"
               "shard's workers tighten one cross-shard bound.\n"
               "\n"
               "--storage ram|mmap selects how build/query/range/serve open "
               "<data.bin>:\n"
               "ram (default) bulk-loads it; mmap maps it without loading "
               "and serves the\n"
               "query-time raw-series reads from a bounded buffer pool "
               "(--pool-mb M,\n"
               "default 64) with measured hit/miss counters. Answers are "
               "bit-identical\n"
               "across backends and compose with --shards and "
               "--query-threads.\n"
               "\n"
               "--trace <path> (build/query/range/serve) records per-query "
               "phase spans\n"
               "(execute, traversal, leaf verification, shard fan-out, "
               "buffer-pool IO;\n"
               "per-request spans under serve) and writes Chrome "
               "trace-event JSON on\n"
               "exit; open it at ui.perfetto.dev or chrome://tracing. "
               "`stats --full`\n"
               "prints a running daemon's whole metrics registry "
               "(counters, gauges,\n"
               "latency histograms) as text, one metric per line.\n");
  return 2;
}

// User input must produce a clean error, never a HYDRA_CHECK abort.
bool IsKnownMethod(const std::string& name) {
  for (const std::string& m : bench::AllMethodNames()) {
    if (m == name) return true;
  }
  return false;
}

int BadMethod(const std::string& name) {
  std::fprintf(stderr, "error: unknown method '%s' (see: hydra methods)\n",
               name.c_str());
  return 1;
}

/// Parses a non-negative decimal integer; strtoull alone would wrap "-1"
/// (even with leading whitespace) to ULLONG_MAX and accept trailing
/// garbage, so the first character must already be a digit.
bool ParseUint(const char* arg, uint64_t* out) {
  if (arg == nullptr || arg[0] < '0' || arg[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (errno != 0 || end == arg || *end != '\0') return false;
  *out = v;
  return true;
}

int BadNumber(const char* what, const char* arg) {
  std::fprintf(stderr, "error: %s must be a non-negative integer, got '%s'\n",
               what, arg);
  return 1;
}

/// Parses a non-negative finite decimal number with the same rigor
/// ParseUint applies to integers: the first character must already be a
/// digit or '.', which rejects negatives, "nan"/"inf", and leading
/// whitespace up front; strtod's end pointer rejects trailing junk; the
/// isfinite check rejects overflow to infinity ("1e999"); and C99
/// hex-floats ("0x5") are rejected explicitly — ParseUint is base-10, so
/// this parser is too.
bool ParseDouble(const char* arg, double* out) {
  if (arg == nullptr ||
      !((arg[0] >= '0' && arg[0] <= '9') || arg[0] == '.')) {
    return false;
  }
  if (arg[0] == '0' && (arg[1] == 'x' || arg[1] == 'X')) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (errno != 0 || end == arg || *end != '\0' || !std::isfinite(v) ||
      v < 0.0) {
    return false;
  }
  *out = v;
  return true;
}

/// Extracts one `--flag value` option (anywhere in argv) into `*value` and
/// removes both tokens from `*args`. Returns false (after printing an
/// error) when the flag is present without a value; `*value` stays nullptr
/// when the flag is absent.
bool ExtractOption(std::vector<char*>* args, const char* flag,
                   const char** value) {
  *value = nullptr;
  for (size_t i = 0; i < args->size(); ++i) {
    if (std::string((*args)[i]) != flag) continue;
    if (i + 1 >= args->size()) {
      std::fprintf(stderr, "error: %s needs a value\n", flag);
      return false;
    }
    *value = (*args)[i + 1];
    args->erase(args->begin() + static_cast<long>(i),
                args->begin() + static_cast<long>(i) + 2);
    return true;
  }
  return true;
}

/// Extracts a valueless `--flag` (anywhere in argv) from `*args`; returns
/// true when it was present.
bool ExtractBareFlag(std::vector<char*>* args, const char* flag) {
  for (size_t i = 0; i < args->size(); ++i) {
    if (std::string((*args)[i]) != flag) continue;
    args->erase(args->begin() + static_cast<long>(i));
    return true;
  }
  return false;
}

/// The QuerySpec-shaping flags of `hydra query`, as extracted from argv.
struct QueryFlags {
  const char* mode = nullptr;
  const char* epsilon = nullptr;
  const char* delta = nullptr;
  const char* max_leaves = nullptr;
  const char* max_raw = nullptr;

  bool any() const {
    return mode != nullptr || epsilon != nullptr || delta != nullptr ||
           max_leaves != nullptr || max_raw != nullptr;
  }
};

/// Validates the QuerySpec flags and fills `*spec` (kind kKnn; the caller
/// sets k). Returns false after printing an error: every malformed value,
/// inconsistent flag combination, or mode the method's traits do not
/// advertise exits cleanly instead of reaching a CHECK abort.
bool BuildQuerySpec(const QueryFlags& flags, const core::MethodTraits& traits,
                    const std::string& method_name, core::QuerySpec* spec) {
  if (flags.mode != nullptr) {
    const std::string mode = flags.mode;
    if (mode == "exact") {
      spec->mode = core::QualityMode::kExact;
    } else if (mode == "ng") {
      spec->mode = core::QualityMode::kNgApprox;
    } else if (mode == "epsilon") {
      spec->mode = core::QualityMode::kEpsilon;
    } else if (mode == "delta-epsilon") {
      spec->mode = core::QualityMode::kDeltaEpsilon;
    } else {
      std::fprintf(stderr,
                   "error: unknown mode '%s' "
                   "(exact|ng|epsilon|delta-epsilon)\n",
                   flags.mode);
      return false;
    }
  }
  const bool eps_mode = spec->mode == core::QualityMode::kEpsilon ||
                        spec->mode == core::QualityMode::kDeltaEpsilon;
  if (flags.epsilon != nullptr && !eps_mode) {
    std::fprintf(stderr, "error: --epsilon requires --mode epsilon or "
                         "delta-epsilon\n");
    return false;
  }
  // The converse too: a requested relaxation with no bound parameter would
  // silently run at exact cost while labeled approximate.
  if (eps_mode && flags.epsilon == nullptr) {
    std::fprintf(stderr, "error: --mode %s requires --epsilon\n",
                 core::QualityModeName(spec->mode));
    return false;
  }
  if (flags.delta != nullptr &&
      spec->mode != core::QualityMode::kDeltaEpsilon) {
    std::fprintf(stderr, "error: --delta requires --mode delta-epsilon\n");
    return false;
  }
  if (spec->mode == core::QualityMode::kDeltaEpsilon &&
      flags.delta == nullptr) {
    std::fprintf(stderr,
                 "error: --mode delta-epsilon requires --delta (1.0 is "
                 "plain epsilon)\n");
    return false;
  }
  if (flags.epsilon != nullptr &&
      !ParseDouble(flags.epsilon, &spec->epsilon)) {
    std::fprintf(stderr,
                 "error: --epsilon must be a finite non-negative number, "
                 "got '%s'\n",
                 flags.epsilon);
    return false;
  }
  if (flags.delta != nullptr) {
    if (!ParseDouble(flags.delta, &spec->delta) || spec->delta <= 0.0 ||
        spec->delta > 1.0) {
      std::fprintf(stderr, "error: --delta must lie in (0, 1], got '%s'\n",
                   flags.delta);
      return false;
    }
  }
  for (const auto& [flag, arg, out] :
       {std::tuple{"--max-leaves", flags.max_leaves,
                   &spec->max_visited_leaves},
        std::tuple{"--max-raw", flags.max_raw, &spec->max_raw_series}}) {
    if (arg == nullptr) continue;
    uint64_t value = 0;
    if (!ParseUint(arg, &value) || value == 0 ||
        value > static_cast<uint64_t>(
                    std::numeric_limits<int64_t>::max())) {
      std::fprintf(stderr, "error: %s must be a positive integer, got '%s'\n",
                   flag, arg);
      return false;
    }
    *out = static_cast<int64_t>(value);
  }
  if (spec->mode == core::QualityMode::kNgApprox && spec->has_budget()) {
    std::fprintf(stderr, "error: budgets do not apply to --mode ng (it "
                         "already visits at most one leaf)\n");
    return false;
  }
  // A leaf budget that can never bind would be silently inert — refuse it
  // with the same honesty --mode combinations get.
  if (flags.max_leaves != nullptr && !traits.leaf_visit_budget) {
    std::fprintf(stderr,
                 "error: %s has no leaf-visit budget unit, so --max-leaves "
                 "could never fire; cap work with --max-raw instead\n",
                 method_name.c_str());
    return false;
  }
  // Honest refusal instead of a silent exact answer: the method must
  // advertise the requested mode.
  const std::string reason = core::ModeFallbackReason(traits, spec->mode);
  if (!reason.empty()) {
    std::fprintf(stderr, "error: %s does not support --mode %s (%s)\n",
                 method_name.c_str(), core::QualityModeName(spec->mode),
                 reason.c_str());
    return false;
  }
  return true;
}

/// Extracts a `--shards N` option (anywhere in argv) into `*shards` and
/// removes it from `*args`. `*shards` stays 0 (= unsharded) when the flag
/// is absent; returns false (after printing an error) on a missing,
/// zero, or absurd value.
bool ExtractShards(std::vector<char*>* args, uint64_t* shards) {
  *shards = 0;
  const char* value = nullptr;
  if (!ExtractOption(args, "--shards", &value)) return false;
  if (value == nullptr) return true;
  constexpr uint64_t kMaxShards = 1024;
  if (!ParseUint(value, shards) || *shards == 0 || *shards > kMaxShards) {
    std::fprintf(stderr,
                 "error: --shards must be an integer in [1, %llu], got "
                 "'%s'\n",
                 static_cast<unsigned long long>(kMaxShards), value);
    return false;
  }
  return true;
}

/// Creates the method the query-answering commands run: the plain method,
/// or a sharded container over it when `shards` > 0 (in which case
/// `threads` feeds the container's fan-out pool). Prints a traits-derived
/// refusal and returns null for an unshardable method.
std::unique_ptr<core::SearchMethod> MakeMethod(const std::string& name,
                                               uint64_t shards,
                                               uint64_t threads) {
  auto method = bench::CreateMethod(name);
  if (shards == 0) return method;
  const core::MethodTraits traits = method->traits();
  if (!traits.shardable) {
    std::fprintf(stderr, "error: %s does not support --shards (%s)\n",
                 name.c_str(), traits.shard_reason.c_str());
    return nullptr;
  }
  return bench::CreateShardedMethod(name, static_cast<size_t>(shards),
                                    static_cast<size_t>(threads));
}

/// Extracts a `--threads N` option (anywhere in argv) into `*threads` and
/// removes it from `*args`. Returns false (after printing an error) on a
/// missing or non-positive value.
bool ExtractThreads(std::vector<char*>* args, uint64_t* threads) {
  *threads = 1;
  const char* value = nullptr;
  if (!ExtractOption(args, "--threads", &value)) return false;
  if (value == nullptr) return true;
  // The cap keeps absurd values from aborting inside std::thread
  // creation (bad user input must exit 1, never SIGABRT).
  constexpr uint64_t kMaxThreads = 1024;
  if (!ParseUint(value, threads) || *threads == 0 ||
      *threads > kMaxThreads) {
    std::fprintf(stderr, "error: --threads must be an integer in "
                         "[1, %llu], got '%s'\n",
                 static_cast<unsigned long long>(kMaxThreads), value);
    return false;
  }
  return true;
}

/// Extracts a `--query-threads N` option (anywhere in argv) into
/// `*query_threads` and removes it from `*args`. Returns false (after
/// printing an error) on a missing, zero, or absurd value; `*query_threads`
/// stays 1 (= serial traversal) when the flag is absent.
bool ExtractQueryThreads(std::vector<char*>* args, uint64_t* query_threads) {
  *query_threads = 1;
  const char* value = nullptr;
  if (!ExtractOption(args, "--query-threads", &value)) return false;
  if (value == nullptr) return true;
  constexpr uint64_t kMaxQueryThreads = 1024;
  if (!ParseUint(value, query_threads) || *query_threads == 0 ||
      *query_threads > kMaxQueryThreads) {
    std::fprintf(stderr,
                 "error: --query-threads must be an integer in [1, %llu], "
                 "got '%s'\n",
                 static_cast<unsigned long long>(kMaxQueryThreads), value);
    return false;
  }
  return true;
}

/// The traits-derived --query-threads gate shared by `query` and `range`:
/// refuses (exit 1 path, returns false) a width > 1 on a method whose
/// traversal does not run on the shared engine, printing the method's own
/// reason — never a silently serial "parallel" run.
bool CheckQueryThreads(const core::MethodTraits& traits,
                       const std::string& method_name,
                       uint64_t query_threads) {
  if (query_threads <= 1 || traits.intra_query_parallel) return true;
  std::fprintf(stderr, "error: %s does not support --query-threads (%s)\n",
               method_name.c_str(), traits.intra_query_reason.c_str());
  return false;
}

/// The daemon flags of `hydra serve` (and --port of the client modes),
/// extracted and validated through the ParseUint path: every malformed or
/// absurd value exits 1, never reaches a CHECK abort or std::thread throw.
struct ServeFlags {
  uint64_t port = 7700;
  uint64_t serve_threads = 1;
  uint64_t cache_mb = 64;
  uint64_t max_inflight = 64;
  bool had_port = false;
  bool had_daemon_flags = false;  // --serve-threads/--cache-mb/--max-inflight
};

bool ExtractServeFlags(std::vector<char*>* args, ServeFlags* flags) {
  const size_t before = args->size();
  const char* port = nullptr;
  const char* serve_threads = nullptr;
  const char* cache_mb = nullptr;
  const char* max_inflight = nullptr;
  if (!ExtractOption(args, "--port", &port) ||
      !ExtractOption(args, "--serve-threads", &serve_threads) ||
      !ExtractOption(args, "--cache-mb", &cache_mb) ||
      !ExtractOption(args, "--max-inflight", &max_inflight)) {
    return false;
  }
  flags->had_port = port != nullptr;
  flags->had_daemon_flags = args->size() != before - (port != nullptr ? 2 : 0);
  if (port != nullptr) {
    // 0 = ephemeral: the daemon prints the port the kernel picked.
    if (!ParseUint(port, &flags->port) || flags->port > 65535) {
      std::fprintf(stderr,
                   "error: --port must be an integer in [0, 65535], got "
                   "'%s'\n",
                   port);
      return false;
    }
  }
  if (serve_threads != nullptr) {
    constexpr uint64_t kMaxServeThreads = 1024;
    if (!ParseUint(serve_threads, &flags->serve_threads) ||
        flags->serve_threads == 0 ||
        flags->serve_threads > kMaxServeThreads) {
      std::fprintf(stderr,
                   "error: --serve-threads must be an integer in [1, %llu], "
                   "got '%s'\n",
                   static_cast<unsigned long long>(kMaxServeThreads),
                   serve_threads);
      return false;
    }
  }
  if (cache_mb != nullptr) {
    // 0 disables the cache; the cap keeps the budget inside size_t range
    // on any platform.
    constexpr uint64_t kMaxCacheMb = 4096;
    if (!ParseUint(cache_mb, &flags->cache_mb) ||
        flags->cache_mb > kMaxCacheMb) {
      std::fprintf(stderr,
                   "error: --cache-mb must be an integer in [0, %llu], got "
                   "'%s'\n",
                   static_cast<unsigned long long>(kMaxCacheMb), cache_mb);
      return false;
    }
  }
  if (max_inflight != nullptr) {
    constexpr uint64_t kMaxInflight = uint64_t{1} << 20;
    if (!ParseUint(max_inflight, &flags->max_inflight) ||
        flags->max_inflight == 0 || flags->max_inflight > kMaxInflight) {
      std::fprintf(stderr,
                   "error: --max-inflight must be an integer in [1, %llu], "
                   "got '%s'\n",
                   static_cast<unsigned long long>(kMaxInflight),
                   max_inflight);
      return false;
    }
  }
  return true;
}

/// The storage-backend flags of the data-touching commands: --storage
/// ram|mmap selects how <data.bin> is opened (ram, the default, bulk-loads
/// it; mmap maps it and serves verification reads from a buffer pool) and
/// --pool-mb sizes the mmap backend's pool. Validated through the same
/// honesty path as every flag: a malformed value, or --pool-mb without
/// --storage mmap (it could never matter), exits 1.
struct StorageFlags {
  storage::StorageOptions options;
  bool had_any = false;
};

bool ExtractStorageFlags(std::vector<char*>* args, StorageFlags* flags) {
  const char* backend = nullptr;
  const char* pool_mb = nullptr;
  if (!ExtractOption(args, "--storage", &backend) ||
      !ExtractOption(args, "--pool-mb", &pool_mb)) {
    return false;
  }
  flags->had_any = backend != nullptr || pool_mb != nullptr;
  if (backend != nullptr) {
    auto parsed = storage::ParseStorageBackend(backend);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.status().message().c_str());
      return false;
    }
    flags->options.backend = parsed.value();
  }
  if (pool_mb != nullptr) {
    if (flags->options.backend != storage::StorageBackend::kMmap) {
      std::fprintf(stderr,
                   "error: --pool-mb requires --storage mmap (the ram "
                   "backend has no buffer pool)\n");
      return false;
    }
    // The cap keeps the byte budget inside size_t on any platform.
    constexpr uint64_t kMaxPoolMb = 65536;
    uint64_t mb = 0;
    if (!ParseUint(pool_mb, &mb) || mb == 0 || mb > kMaxPoolMb) {
      std::fprintf(stderr,
                   "error: --pool-mb must be an integer in [1, %llu], got "
                   "'%s'\n",
                   static_cast<unsigned long long>(kMaxPoolMb), pool_mb);
      return false;
    }
    flags->options.pool.budget_bytes = static_cast<size_t>(mb) << 20;
  }
  return true;
}

/// Opens <data.bin> under the selected backend. The pooled backend prints
/// its geometry line; the default ram path prints nothing extra, keeping
/// output byte-identical to historical runs (and to the daemon smoke
/// diffs). Returns false after printing the error.
bool OpenStorage(const char* path, const StorageFlags& flags,
                 storage::StorageHandle* handle) {
  auto opened = storage::StorageHandle::Open(path, "cli", flags.options);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().message().c_str());
    return false;
  }
  *handle = std::move(opened).value();
  if (handle->pooled()) std::printf("%s\n", handle->Describe().c_str());
  return true;
}

/// The measured-I/O epilogue of `query` and `range` on a pooled backend:
/// the pool ledger of the batch, plus the reconciliation of measured pool
/// misses against the modeled random-access count (the paper's ledger).
/// Pages coalesce neighboring series and stay warm across queries, so
/// measured misses <= modeled accesses; the line makes that relation
/// visible instead of leaving two unconnected numbers. Prints nothing on
/// the ram backend, whose output must stay byte-identical.
void PrintStorageSummary(const storage::StorageHandle& handle,
                         const core::SearchStats& total) {
  if (!handle.pooled()) return;
  const long long hits = static_cast<long long>(total.pool_hits);
  const long long misses = static_cast<long long>(total.pool_misses);
  const long long reads = hits + misses;
  const double hit_rate =
      reads > 0 ? 100.0 * static_cast<double>(hits) /
                      static_cast<double>(reads)
                : 0.0;
  std::printf("storage: %lld pool reads (hits %lld, misses %lld, hit rate "
              "%.1f%%), %lld preads, %lld bytes, %lld evictions\n",
              reads, hits, misses, hit_rate,
              static_cast<long long>(total.pool_pread_calls),
              static_cast<long long>(total.pool_bytes_read),
              static_cast<long long>(total.pool_evictions));
  std::printf("storage check: measured pool misses %lld vs modeled random "
              "accesses %lld (%s)\n",
              misses, static_cast<long long>(total.random_seeks),
              misses <= total.random_seeks
                  ? "consistent: page coalescing and reuse make measured "
                    "<= modeled"
                  : "measured exceeds modeled: pool thrashing below the "
                    "working set");
}

/// Self-pipe bridging POSIX signals into the serve loop: the handler only
/// writes one identifying byte, everything real (drain, re-open) happens
/// on the main thread outside signal context.
int g_serve_signal_pipe[2] = {-1, -1};

extern "C" void ServeSignalHandler(int sig) {
  const char byte = sig == SIGHUP ? 'H' : 'Q';
  // A full pipe just drops the byte; the pending signal of the same kind
  // is already queued for processing.
  [[maybe_unused]] const ssize_t ignored =
      ::write(g_serve_signal_pipe[1], &byte, 1);
}

int CmdGen(int argc, char** argv) {
  if (argc != 7) return Usage();
  const std::string family = argv[2];
  if (!gen::IsKnownFamily(family)) {
    std::string known;
    for (const std::string& f : gen::KnownFamilies()) {
      known += known.empty() ? f : "|" + f;
    }
    std::fprintf(stderr, "error: unknown family '%s' (%s)\n", family.c_str(),
                 known.c_str());
    return 1;
  }
  uint64_t count = 0;
  uint64_t length = 0;
  uint64_t seed = 0;
  if (!ParseUint(argv[3], &count)) return BadNumber("count", argv[3]);
  if (!ParseUint(argv[4], &length)) return BadNumber("length", argv[4]);
  if (!ParseUint(argv[5], &seed)) return BadNumber("seed", argv[5]);
  if (count == 0 || length == 0) {
    std::fprintf(stderr, "error: count and length must be positive\n");
    return 1;
  }
  // Generation streams to disk in bounded chunks (io::SeriesFileWriter +
  // gen::SeriesEmitter), so corpus size is disk-limited, not RAM-limited;
  // the only arithmetic bound left is the format's uint64 byte volume.
  if (count >
      std::numeric_limits<uint64_t>::max() / sizeof(core::Value) / length) {
    std::fprintf(stderr,
                 "error: count x length = %llu x %llu overflows the series "
                 "file format\n",
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(length));
    return 1;
  }
  auto created = io::SeriesFileWriter::Create(argv[6], length);
  if (!created.ok()) {
    std::fprintf(stderr, "error: %s\n", created.status().message().c_str());
    return 1;
  }
  io::SeriesFileWriter writer = std::move(created).value();
  const auto emitter = gen::MakeEmitter(family, length, seed);
  // ~4 MiB emission chunks: constant memory however large the corpus,
  // while writes stay large enough to reach disk bandwidth.
  const size_t chunk = std::max<size_t>(
      1, (size_t{4} << 20) / (length * sizeof(core::Value)));
  std::vector<core::Value> buffer(chunk * length);
  uint64_t done = 0;
  while (done < count) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(chunk, count - done));
    for (size_t i = 0; i < n; ++i) {
      emitter->Emit(buffer.data() + i * length);
    }
    // A short write (disk full) exits 1 with the writer's typed error; the
    // unfinished header keeps the partial file unreadable.
    const util::Status appended = writer.AppendBlock(buffer.data(), n);
    if (!appended.ok()) {
      std::fprintf(stderr, "error: %s\n", appended.message().c_str());
      return 1;
    }
    done += n;
  }
  const util::Status finished = writer.Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "error: %s\n", finished.message().c_str());
    return 1;
  }
  std::printf("wrote %zu x %zu series (%s) to %s\n",
              static_cast<size_t>(count), static_cast<size_t>(length),
              family.c_str(), argv[6]);
  return 0;
}

util::Result<core::Dataset> Load(const char* path) {
  return io::ReadSeriesFile(path, "cli");
}

/// Builds or opens the method over `data` depending on `index_dir`
/// (nullptr = fresh build). Prints the phase line; returns false (after
/// printing an error) when opening the persisted index failed.
bool BuildOrOpen(core::SearchMethod* method, const core::Dataset& data,
                 const char* index_dir) {
  if (index_dir == nullptr) {
    const core::BuildStats build = method->Build(data);
    std::printf("built %s over %zu series in %.2fs CPU\n",
                method->name().c_str(), data.size(), build.cpu_seconds);
    return true;
  }
  util::Result<core::BuildStats> opened = method->Open(index_dir, data);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().message().c_str());
    return false;
  }
  std::printf("opened %s index from %s in %.2fs load (build skipped)\n",
              method->name().c_str(), index_dir,
              opened.value().load_seconds);
  return true;
}

/// Prints the sharded-layout line of a query-answering command (the shard
/// count is a property of the built/opened container, which may differ
/// from the requested flag after Open — the manifest wins). The fan-out
/// width reported is the *effective* one: never more workers than shards.
void PrintShardLayout(const core::SearchMethod& method, uint64_t threads) {
  const auto* sharded = dynamic_cast<const shard::ShardedIndex*>(&method);
  if (sharded == nullptr) return;
  const size_t workers =
      std::min<size_t>(static_cast<size_t>(threads), sharded->shard_count());
  std::printf("sharded over %zu shards (fan-out threads: %zu)\n",
              sharded->shard_count(), workers);
}

int CmdServe(int argc, char** argv, uint64_t threads, uint64_t shards,
             const char* index_dir, const ServeFlags& flags,
             const StorageFlags& storage_flags) {
  if (argc != 4) return Usage();
  if (!IsKnownMethod(argv[3])) return BadMethod(argv[3]);
  auto method = MakeMethod(argv[3], shards, threads);
  if (method == nullptr) return 1;
  const core::MethodTraits traits = method->traits();
  if (index_dir != nullptr && !traits.supports_persistence) {
    std::fprintf(stderr, "error: %s does not support --index (%s)\n",
                 method->name().c_str(), traits.persistence_reason.c_str());
    return 1;
  }
  storage::StorageHandle stored;
  if (!OpenStorage(argv[2], storage_flags, &stored)) return 1;
  const core::Dataset& data = stored.dataset();
  if (!BuildOrOpen(method.get(), data, index_dir)) return 1;
  if (shards > 0) PrintShardLayout(*method, threads);

  if (::pipe(g_serve_signal_pipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = ServeSignalHandler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGHUP, &action, nullptr);

  serve::ServerOptions options;
  options.port = static_cast<uint16_t>(flags.port);
  options.serve_threads = static_cast<size_t>(flags.serve_threads);
  options.cache_bytes = static_cast<size_t>(flags.cache_mb) << 20;
  options.max_inflight = static_cast<size_t>(flags.max_inflight);
  serve::Server server(std::move(options));
  std::shared_ptr<core::SearchMethod> shared(std::move(method));
  const util::Status started = server.Start(shared, &data);
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.message().c_str());
    return 1;
  }
  // Scripts parse this line for the bound port; flush so a backgrounded
  // daemon publishes it before the first client connects.
  std::printf("hydra serve: %s on 127.0.0.1:%u (serve-threads %llu, "
              "cache %llu MiB, max-inflight %llu)\n",
              shared->name().c_str(), server.port(),
              static_cast<unsigned long long>(flags.serve_threads),
              static_cast<unsigned long long>(flags.cache_mb),
              static_cast<unsigned long long>(flags.max_inflight));
  std::fflush(stdout);

  for (;;) {
    char byte = 0;
    const ssize_t n = ::read(g_serve_signal_pipe[0], &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // pipe broken — treat as shutdown
    if (byte == 'H') {
      // Re-open (or rebuild) the index without dropping the listener:
      // in-flight queries finish on the old instance, the cache stays
      // valid (same dataset fingerprint, exact answers only).
      auto fresh = MakeMethod(argv[3], shards, threads);
      if (fresh == nullptr || !BuildOrOpen(fresh.get(), data, index_dir)) {
        std::fprintf(stderr,
                     "hydra serve: reload failed; keeping the current "
                     "index\n");
        continue;
      }
      server.Reload(std::shared_ptr<core::SearchMethod>(std::move(fresh)));
      std::printf("hydra serve: index reloaded\n");
      std::fflush(stdout);
      continue;
    }
    break;  // SIGINT/SIGTERM: drain and exit
  }
  std::printf("hydra serve: draining in-flight queries\n");
  std::fflush(stdout);
  server.Shutdown();
  std::printf("hydra serve: stopped\n%s\n", server.StatsJson().c_str());
  return 0;
}

int CmdPing(const ServeFlags& flags) {
  serve::Client client;
  util::WallTimer timer;
  util::Status s =
      client.Connect("127.0.0.1", static_cast<uint16_t>(flags.port));
  if (s.ok()) s = client.Ping();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("pong from 127.0.0.1:%llu (%.2f ms)\n",
              static_cast<unsigned long long>(flags.port),
              timer.Seconds() * 1e3);
  return 0;
}

int CmdStats(const ServeFlags& flags, bool full) {
  serve::Client client;
  util::Status s =
      client.Connect("127.0.0.1", static_cast<uint16_t>(flags.port));
  std::string doc;
  if (s.ok()) s = full ? client.StatsFull(&doc) : client.Stats(&doc);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 1;
  }
  if (full) {
    // The registry dump already ends each line with '\n'.
    std::fputs(doc.c_str(), stdout);
  } else {
    std::printf("%s\n", doc.c_str());
  }
  return 0;
}

int CmdQueryd(int argc, char** argv, const QueryFlags& flags,
              const ServeFlags& serve_flags) {
  if (argc < 4) return Usage();
  uint64_t k = 0;
  if (!ParseUint(argv[3], &k)) return BadNumber("k", argv[3]);
  if (k == 0) {
    std::fprintf(stderr, "error: k must be positive\n");
    return 1;
  }
  uint64_t queries = 10;
  if (argc > 4 && !ParseUint(argv[4], &queries)) {
    return BadNumber("queries", argv[4]);
  }
  // Client-side parsing is syntactic only: the *server's* method traits
  // decide which modes are honestly answerable, and it refuses with a
  // BAD_QUERY frame — so validate against permissive traits here.
  core::MethodTraits permissive;
  permissive.supports_ng = true;
  permissive.supports_epsilon = true;
  permissive.supports_delta_epsilon = true;
  permissive.leaf_visit_budget = true;
  core::QuerySpec spec = core::QuerySpec::Knn(k);
  if (!BuildQuerySpec(flags, permissive, "the served method", &spec)) {
    return 1;
  }
  auto loaded = Load(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().message().c_str());
    return 1;
  }
  const core::Dataset data = std::move(loaded).value();
  const gen::Workload probe = gen::CtrlWorkload(data, queries, 1);

  serve::Client client;
  const util::Status connected =
      client.Connect("127.0.0.1", static_cast<uint16_t>(serve_flags.port));
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n", connected.message().c_str());
    return 1;
  }
  size_t cached = 0;
  for (size_t q = 0; q < probe.queries.size(); ++q) {
    serve::QueryRequest request;
    request.spec = spec;
    // Sequential request ids propagate into the daemon's flight recorder
    // and trace spans: a slow query in its STATS names the client call.
    request.request_id = static_cast<uint64_t>(q) + 1;
    request.query.assign(probe.queries[q].begin(), probe.queries[q].end());
    serve::AnswerResponse answer;
    const util::Status s = client.Query(request, &answer);
    if (!s.ok()) {
      std::fprintf(stderr, "error: query %zu: %s\n", q, s.message().c_str());
      return 1;
    }
    if (answer.cached) ++cached;
    // Byte-identical to the `hydra query` per-query line, so a served
    // answer stream can be diffed against a direct run.
    const core::QueryResult& r = answer.result;
    std::printf("query %2zu: ", q);
    for (const auto& n : r.neighbors) {
      std::printf("(%u, %.3f) ", n.id, std::sqrt(n.dist_sq));
    }
    std::printf("[examined %lld, seeks %lld, mode %s%s]\n",
                static_cast<long long>(r.stats.raw_series_examined),
                static_cast<long long>(r.stats.random_seeks),
                core::QualityModeName(r.delivered()),
                r.budget_fired() ? ", budget exhausted" : "");
  }
  std::printf("answered %zu queries via 127.0.0.1:%llu (%zu from cache)\n",
              probe.queries.size(),
              static_cast<unsigned long long>(serve_flags.port), cached);
  return 0;
}

int CmdQuery(int argc, char** argv, uint64_t threads, uint64_t shards,
             uint64_t query_threads, const QueryFlags& flags,
             const char* index_dir, const StorageFlags& storage_flags) {
  if (argc < 5) return Usage();
  // Validate the cheap arguments before reading the (possibly huge) file.
  if (!IsKnownMethod(argv[3])) return BadMethod(argv[3]);
  uint64_t k = 0;
  if (!ParseUint(argv[4], &k)) return BadNumber("k", argv[4]);
  if (k == 0) {
    std::fprintf(stderr, "error: k must be positive\n");
    return 1;
  }
  uint64_t queries = 10;
  if (argc > 5 && !ParseUint(argv[5], &queries)) {
    return BadNumber("queries", argv[5]);
  }
  auto method = MakeMethod(argv[3], shards, threads);
  if (method == nullptr) return 1;
  const core::MethodTraits traits = method->traits();
  core::QuerySpec spec = core::QuerySpec::Knn(k);
  if (!BuildQuerySpec(flags, traits, method->name(), &spec)) {
    return 1;
  }
  if (!CheckQueryThreads(traits, method->name(), query_threads)) return 1;
  spec.query_threads = static_cast<size_t>(query_threads);
  if (query_threads > 1 &&
      (spec.mode != core::QualityMode::kExact || spec.has_budget())) {
    // Approximate and budgeted answers depend on visit order, so the
    // engine keeps their traversal serial — note it rather than let the
    // user believe the relaxed run was parallel.
    std::printf("note: --query-threads applies to pure exact plans only; "
                "this %s%s run keeps its traversal serial\n",
                core::QualityModeName(spec.mode),
                spec.has_budget() ? " budgeted" : "");
  }
  if (query_threads > 1 && threads > 1 && shards == 0) {
    std::printf("note: %llu batch threads x %llu traversal workers = %llu "
                "total threads at peak\n",
                static_cast<unsigned long long>(threads),
                static_cast<unsigned long long>(query_threads),
                static_cast<unsigned long long>(threads * query_threads));
  }
  // Honest refusal before touching the data file: --index on a method
  // that cannot persist an index could never succeed.
  if (index_dir != nullptr && !traits.supports_persistence) {
    std::fprintf(stderr, "error: %s does not support --index (%s)\n",
                 method->name().c_str(), traits.persistence_reason.c_str());
    return 1;
  }
  storage::StorageHandle stored;
  if (!OpenStorage(argv[2], storage_flags, &stored)) return 1;
  const core::Dataset& data = stored.dataset();

  if (!BuildOrOpen(method.get(), data, index_dir)) return 1;
  if (shards > 0) PrintShardLayout(*method, threads);
  const gen::Workload probe = gen::CtrlWorkload(data, queries, 1);
  // With --shards, the parallelism lives inside each query (the fan-out
  // pool); the batch itself runs serially.
  const size_t batch_threads =
      shards > 0 ? 1 : static_cast<size_t>(threads);
  util::WallTimer timer;
  const core::BatchResult batch =
      bench::SearchKnnBatch(method.get(), probe, spec, batch_threads);
  const double wall = timer.Seconds();
  for (size_t q = 0; q < batch.queries.size(); ++q) {
    const core::QueryResult& r = batch.queries[q];
    std::printf("query %2zu: ", q);
    for (const auto& n : r.neighbors) {
      std::printf("(%u, %.3f) ", n.id, std::sqrt(n.dist_sq));
    }
    // The delivered guarantee and budget outcome are part of the answer:
    // without them an approximate or truncated run is indistinguishable
    // from an exact one in terminal output.
    std::printf("[examined %lld, seeks %lld, mode %s%s]\n",
                static_cast<long long>(r.stats.raw_series_examined),
                static_cast<long long>(r.stats.random_seeks),
                core::QualityModeName(r.delivered()),
                r.budget_fired() ? ", budget exhausted" : "");
  }
  // Honest delivery report: the guarantee that held for every query of
  // the batch (budgets downgrade it to "ng" = no guarantee).
  size_t budget_fired = 0;
  for (const core::QueryResult& r : batch.queries) {
    if (r.budget_fired()) ++budget_fired;
  }
  std::printf("mode %s requested: weakest delivered %s; budget fired on "
              "%zu/%zu queries\n",
              core::QualityModeName(spec.mode),
              core::QualityModeName(batch.total.answer_mode_delivered),
              budget_fired, batch.queries.size());
  if (threads > 1 && shards == 0) {
    if (!batch.serial_reason.empty()) {
      std::printf("ran serially: %s\n", batch.serial_reason.c_str());
    } else if (batch.queries.size() == 1) {
      // --threads parallelizes across queries; with one query it silently
      // does nothing — say so instead of implying a concurrent run.
      std::printf("note: --threads parallelizes across queries and a "
                  "single-query batch runs serially; use --query-threads "
                  "to parallelize within the query%s\n",
                  traits.intra_query_parallel
                      ? ""
                      : " (not supported by this method)");
    } else {
      std::printf("%zu queries on %zu threads: %.3fs wall (%.1f queries/s)\n",
                  batch.queries.size(), batch.threads_used, wall,
                  static_cast<double>(batch.queries.size()) / wall);
    }
  }
  PrintStorageSummary(stored, batch.total);
  obs::PublishSearchStats(batch.total, "query");
  return 0;
}

int CmdRange(int argc, char** argv, uint64_t threads, uint64_t shards,
             uint64_t query_threads, const char* index_dir,
             const StorageFlags& storage_flags) {
  if (argc < 5) return Usage();
  // Validate the cheap arguments before reading the (possibly huge) file.
  if (!IsKnownMethod(argv[3])) return BadMethod(argv[3]);
  errno = 0;
  char* end = nullptr;
  const double radius = std::strtod(argv[4], &end);
  if (errno != 0 || end == argv[4] || *end != '\0' || !(radius >= 0.0)) {
    std::fprintf(stderr, "error: radius must be a non-negative number\n");
    return 1;
  }
  uint64_t queries = 10;
  if (argc > 5 && !ParseUint(argv[5], &queries)) {
    return BadNumber("queries", argv[5]);
  }
  auto method = MakeMethod(argv[3], shards, threads);
  if (method == nullptr) return 1;
  const core::MethodTraits traits = method->traits();
  if (!CheckQueryThreads(traits, method->name(), query_threads)) return 1;
  if (index_dir != nullptr && !traits.supports_persistence) {
    std::fprintf(stderr, "error: %s does not support --index (%s)\n",
                 method->name().c_str(), traits.persistence_reason.c_str());
    return 1;
  }
  storage::StorageHandle stored;
  if (!OpenStorage(argv[2], storage_flags, &stored)) return 1;
  const core::Dataset& data = stored.dataset();

  if (!BuildOrOpen(method.get(), data, index_dir)) return 1;
  if (shards > 0) PrintShardLayout(*method, threads);
  core::QuerySpec spec = core::QuerySpec::Range(radius);
  spec.query_threads = static_cast<size_t>(query_threads);
  const gen::Workload probe = gen::CtrlWorkload(data, queries, 1);
  core::SearchStats total;
  for (size_t q = 0; q < probe.queries.size(); ++q) {
    const core::QueryResult r = method->Execute(probe.queries[q], spec);
    total.Add(r.stats);
    std::printf("query %2zu: %zu series within r=%.3f [examined %lld]\n", q,
                r.neighbors.size(), radius,
                static_cast<long long>(r.stats.raw_series_examined));
  }
  PrintStorageSummary(stored, total);
  obs::PublishSearchStats(total, "range");
  return 0;
}

int CmdBuild(int argc, char** argv, uint64_t threads, uint64_t shards,
             const StorageFlags& storage_flags) {
  if (argc != 5) return Usage();
  if (!IsKnownMethod(argv[3])) return BadMethod(argv[3]);
  auto method = MakeMethod(argv[3], shards, threads);
  if (method == nullptr) return 1;
  const core::MethodTraits traits = method->traits();
  // Traits-derived refusal before any expensive work: a method without
  // DoSave/DoOpen hooks can never produce an index directory.
  if (!traits.supports_persistence) {
    std::fprintf(stderr,
                 "error: %s does not support a persisted index (%s)\n",
                 method->name().c_str(), traits.persistence_reason.c_str());
    return 1;
  }
  storage::StorageHandle stored;
  if (!OpenStorage(argv[2], storage_flags, &stored)) return 1;
  const core::Dataset& data = stored.dataset();
  const core::BuildStats build = method->Build(data);
  std::printf("built %s over %zu series in %.2fs CPU\n",
              method->name().c_str(), data.size(), build.cpu_seconds);
  if (shards > 0) PrintShardLayout(*method, threads);
  const util::Result<int64_t> saved = method->Save(argv[4]);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.status().message().c_str());
    return 1;
  }
  std::printf("saved %s index to %s (%lld bytes)\n", method->name().c_str(),
              argv[4], static_cast<long long>(saved.value()));
  return 0;
}

int CmdCompare(int argc, char** argv, uint64_t threads) {
  if (argc < 3) return Usage();
  auto loaded = Load(argv[2]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().message().c_str());
    return 1;
  }
  const core::Dataset data = std::move(loaded).value();
  uint64_t queries = 10;
  if (argc > 3 && !ParseUint(argv[3], &queries)) {
    return BadNumber("queries", argv[3]);
  }
  const gen::Workload probe = gen::CtrlWorkload(data, queries, 1);

  util::Table table({"method", "idx_s", "exact100_HDD_s", "exact100_SSD_s",
                     "pruning"});
  const auto hdd = io::DiskModel::ScaledHdd();
  const auto ssd = io::DiskModel::Ssd();
  for (const std::string& name : bench::BestSixNames()) {
    auto method = bench::CreateMethod(name);
    const core::MethodTraits traits = method->traits();
    if (threads > 1 && !traits.concurrent_queries) {
      std::printf("note: %s ran serially: %s\n", name.c_str(),
                  traits.serial_reason.c_str());
    }
    const bench::MethodRun run = bench::RunMethodParallel(
        method.get(), data, probe, /*k=*/1, static_cast<size_t>(threads));
    table.AddRow({name, util::Table::Num(bench::IndexSeconds(run, hdd), 3),
                  util::Table::Num(bench::Exact100Seconds(run, hdd), 3),
                  util::Table::Num(bench::Exact100Seconds(run, ssd), 3),
                  util::Table::Num(
                      bench::MeanPruningRatio(run, data.size()), 3)});
  }
  table.Print("method comparison on " + std::string(argv[2]));
  return 0;
}

/// Pre-validates HYDRA_KERNELS so ambient misuse exits 1 with the
/// supported list instead of reaching the library's abort-on-resolve last
/// resort. Returns false after printing the error.
bool CheckKernelEnv() {
  const char* env = std::getenv("HYDRA_KERNELS");
  if (env == nullptr || env[0] == '\0') return true;
  const core::simd::KernelSet* set = core::simd::FindKernelSet(env);
  if (set != nullptr && core::simd::KernelSetSupported(*set)) return true;
  std::string supported;
  for (const core::simd::KernelSet* s : core::simd::SupportedKernelSets()) {
    supported += supported.empty() ? s->name : std::string(", ") + s->name;
  }
  std::fprintf(stderr, "error: HYDRA_KERNELS='%s' is %s (supported: %s)\n",
               env, set == nullptr ? "not a kernel set" : "not supported by "
                                                          "this CPU",
               supported.c_str());
  return false;
}

int CmdKernels(int argc, char** argv) {
  if (argc == 3 && std::string(argv[2]) == "names") {
    // Scripting mode: the supported set names, one per line (the CI
    // dispatch matrix loops over this).
    for (const core::simd::KernelSet* set :
         core::simd::SupportedKernelSets()) {
      std::printf("%s\n", set->name);
    }
    return 0;
  }
  if (argc != 2) return Usage();
  const core::simd::KernelSet& active = core::simd::ActiveKernels();
  util::Table table({"set", "supported", "active", "raw-order-preserving"});
  for (const core::simd::KernelSet* set : core::simd::AllKernelSets()) {
    table.AddRow({set->name,
                  core::simd::KernelSetSupported(*set) ? "yes" : "no",
                  set == &active ? "yes" : "-",
                  set->raw_order_preserved ? "yes" : "no"});
  }
  table.Print("kernel sets (default: best supported; override with "
              "--kernels or HYDRA_KERNELS)");
  return 0;
}

int CmdMethods() {
  // The full traits matrix: quality modes, batch concurrency, and index
  // persistence, each derived from the method's own traits() so this
  // listing can never drift from what Execute/Save/Open actually accept.
  util::Table table({"method", "modes", "concurrent", "persistent",
                     "shardable", "intra-query"});
  for (const std::string& name : bench::AllMethodNames()) {
    const core::MethodTraits traits = bench::CreateMethod(name)->traits();
    std::string modes = "exact";
    if (traits.supports_ng) modes += ",ng";
    if (traits.supports_epsilon) modes += ",epsilon";
    if (traits.supports_delta_epsilon) modes += ",delta-epsilon";
    table.AddRow({name, modes, traits.concurrent_queries ? "yes" : "no",
                  traits.supports_persistence ? "yes" : "no",
                  traits.shardable ? "yes" : "no",
                  traits.intra_query_parallel ? "yes" : "no"});
  }
  table.Print("method traits");
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::vector<char*> args(argv, argv + argc);
  uint64_t threads = 1;
  const size_t before = args.size();
  if (!ExtractThreads(&args, &threads)) return 1;
  const bool had_threads = args.size() != before;
  uint64_t shards = 0;
  if (!ExtractShards(&args, &shards)) return 1;
  uint64_t query_threads = 1;
  const size_t before_qt = args.size();
  if (!ExtractQueryThreads(&args, &query_threads)) return 1;
  const bool had_query_threads = args.size() != before_qt;
  QueryFlags flags;
  const size_t before_spec = args.size();
  if (!ExtractOption(&args, "--mode", &flags.mode) ||
      !ExtractOption(&args, "--epsilon", &flags.epsilon) ||
      !ExtractOption(&args, "--delta", &flags.delta) ||
      !ExtractOption(&args, "--max-leaves", &flags.max_leaves) ||
      !ExtractOption(&args, "--max-raw", &flags.max_raw)) {
    return 1;
  }
  const bool had_spec_flags = args.size() != before_spec;
  const char* index_dir = nullptr;
  if (!ExtractOption(&args, "--index", &index_dir)) return 1;
  const char* kernels = nullptr;
  if (!ExtractOption(&args, "--kernels", &kernels)) return 1;
  const char* trace_path = nullptr;
  if (!ExtractOption(&args, "--trace", &trace_path)) return 1;
  const bool stats_full = ExtractBareFlag(&args, "--full");
  ServeFlags serve_flags;
  if (!ExtractServeFlags(&args, &serve_flags)) return 1;
  StorageFlags storage_flags;
  if (!ExtractStorageFlags(&args, &storage_flags)) return 1;
  if (args.size() < 2) return Usage();  // argv was only flags
  const int n = static_cast<int>(args.size());
  const std::string cmd = args[1];
  // Only the sharding-capable commands accept --shards; stripping it
  // silently elsewhere would let users believe e.g. a compare ran sharded.
  if (shards > 0 && cmd != "build" && cmd != "query" && cmd != "range" &&
      cmd != "serve") {
    std::fprintf(stderr, "error: --shards is only supported by 'build', "
                         "'query', 'range', and 'serve'\n");
    return 1;
  }
  // The daemon/client flags belong to the serve family only; swallowing
  // them elsewhere would let users believe e.g. a query was admission-
  // controlled.
  if (serve_flags.had_port && cmd != "serve" && cmd != "ping" &&
      cmd != "queryd" && cmd != "stats") {
    std::fprintf(stderr, "error: --port is only supported by 'serve', "
                         "'ping', 'queryd', and 'stats'\n");
    return 1;
  }
  if (serve_flags.had_daemon_flags && cmd != "serve") {
    std::fprintf(stderr, "error: --serve-threads/--cache-mb/--max-inflight "
                         "are only supported by 'serve'\n");
    return 1;
  }
  // The storage backend shapes how <data.bin> is opened, which only the
  // data-touching commands do; swallowing the flags elsewhere would let
  // users believe e.g. a queryd client pooled its reads (the *daemon*
  // owns the backend).
  if (storage_flags.had_any && cmd != "build" && cmd != "query" &&
      cmd != "range" && cmd != "serve") {
    std::fprintf(stderr, "error: --storage/--pool-mb are only supported by "
                         "'build', 'query', 'range', and 'serve'\n");
    return 1;
  }
  // --threads is the batch concurrency on query/compare, and the sharded
  // fan-out width when --shards is present (which also makes it
  // meaningful on build/range); anywhere else, stripping it silently
  // would let users believe a serial run was concurrent.
  if (had_threads && cmd != "query" && cmd != "compare" && shards == 0) {
    std::fprintf(stderr, "error: --threads is only supported by 'query' "
                         "and 'compare' (or any sharded command with "
                         "--shards)\n");
    return 1;
  }
  // Under serve, --threads is meaningful only as the sharded fan-out
  // width (the daemon's own concurrency is --serve-threads) — the gate
  // above already enforces that by requiring --shards.
  // --query-threads shapes a single query's traversal, which only the
  // query-answering commands run; swallowing it elsewhere would let
  // users believe e.g. a build was traversal-parallel.
  if (had_query_threads && cmd != "query" && cmd != "range") {
    std::fprintf(stderr, "error: --query-threads is only supported by "
                         "'query' and 'range'\n");
    return 1;
  }
  // The QuerySpec flags only shape k-NN queries; swallowing them
  // elsewhere would let users believe e.g. a range query was approximate.
  if (had_spec_flags && cmd != "query" && cmd != "queryd") {
    std::fprintf(stderr, "error: --mode/--epsilon/--delta/--max-leaves/"
                         "--max-raw are only supported by 'query' and "
                         "'queryd'\n");
    return 1;
  }
  // Same honesty for --index: only the query-answering commands (and the
  // daemon) can open a persisted index (`build` writes one, it never
  // reads one).
  if (index_dir != nullptr && cmd != "query" && cmd != "range" &&
      cmd != "serve") {
    std::fprintf(stderr, "error: --index is only supported by 'query', "
                         "'range', and 'serve'\n");
    return 1;
  }
  // Tracing records per-query spans, which only the index-touching
  // commands emit; swallowing --trace elsewhere would write an empty
  // trace and let users believe e.g. a ping was profiled.
  if (trace_path != nullptr && cmd != "build" && cmd != "query" &&
      cmd != "range" && cmd != "serve") {
    std::fprintf(stderr, "error: --trace is only supported by 'build', "
                         "'query', 'range', and 'serve'\n");
    return 1;
  }
  if (stats_full && cmd != "stats") {
    std::fprintf(stderr, "error: --full is only supported by 'stats'\n");
    return 1;
  }
  if (trace_path != nullptr) {
    // Fail before the work, not after: an unwritable trace path must not
    // cost a full build or query batch first.
    std::ofstream probe(trace_path, std::ios::binary | std::ios::trunc);
    if (!probe) {
      std::fprintf(stderr,
                   "error: cannot open trace path for writing: %s\n",
                   trace_path);
      return 1;
    }
    obs::Tracer::Get().Enable();
  }
  // An unusable HYDRA_KERNELS must exit cleanly for every command — the
  // library would otherwise abort at first dispatch resolution.
  if (!CheckKernelEnv()) return 1;
  if (kernels != nullptr) {
    // --kernels shapes distance computation, which only the build/search
    // commands perform; swallowing it elsewhere would let users believe
    // e.g. `hydra kernels --kernels avx2` changed anything.
    if (cmd != "build" && cmd != "query" && cmd != "range" &&
        cmd != "compare") {
      std::fprintf(stderr, "error: --kernels is only supported by 'build', "
                           "'query', 'range', and 'compare'\n");
      return 1;
    }
    const util::Status forced = core::simd::UseKernels(kernels);
    if (!forced.ok()) {
      std::fprintf(stderr, "error: %s\n", forced.message().c_str());
      return 1;
    }
  }
  const int rc = [&]() -> int {
    if (cmd == "gen") return CmdGen(n, args.data());
    if (cmd == "build") {
      return CmdBuild(n, args.data(), threads, shards, storage_flags);
    }
    if (cmd == "query") {
      return CmdQuery(n, args.data(), threads, shards, query_threads, flags,
                      index_dir, storage_flags);
    }
    if (cmd == "range") {
      return CmdRange(n, args.data(), threads, shards, query_threads,
                      index_dir, storage_flags);
    }
    if (cmd == "compare") return CmdCompare(n, args.data(), threads);
    if (cmd == "serve") {
      return CmdServe(n, args.data(), threads, shards, index_dir,
                      serve_flags, storage_flags);
    }
    if (cmd == "ping") return CmdPing(serve_flags);
    if (cmd == "queryd") return CmdQueryd(n, args.data(), flags, serve_flags);
    if (cmd == "stats") return CmdStats(serve_flags, stats_full);
    if (cmd == "methods") return CmdMethods();
    if (cmd == "kernels") return CmdKernels(n, args.data());
    return Usage();
  }();
  if (trace_path != nullptr) {
    obs::Tracer& tracer = obs::Tracer::Get();
    tracer.SetMeta("command", cmd);
    if (n > 3) tracer.SetMeta("method", args[3]);
    tracer.SetMeta("kernels", core::simd::ActiveKernels().name);
    const util::Status written = tracer.WriteJson(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.message().c_str());
      return rc == 0 ? 1 : rc;
    }
    std::fprintf(stderr, "trace written to %s\n", trace_path);
  }
  return rc;
}

}  // namespace
}  // namespace hydra

int main(int argc, char** argv) { return hydra::Main(argc, argv); }
