// hydra — command-line front end for the library.
//
//   hydra gen <family> <count> <length> <seed> <out.bin>
//       Generate a dataset (synth|seismic|astro|sald|deep) to a series file.
//   hydra build <data.bin> <method> <index-dir>
//       Build the method's index once and persist it under <index-dir>
//       (a versioned, checksummed container; see docs/ARCHITECTURE.md).
//   hydra query <data.bin> <method> <k> [queries]
//       k-NN of generated probe queries against a series file. Defaults to
//       exact answers; --mode selects a relaxed guarantee (see kFlags).
//       --index <dir> opens the persisted index instead of rebuilding
//       (the paper's economics: construction is paid once, amortized over
//       every later query process).
//   hydra range <data.bin> <method> <radius> [queries]
//       Exact r-range queries; accepts --index <dir> like `query`.
//   hydra compare <data.bin> [queries]
//       Run the best six methods and print the scenario table.
//   hydra serve <data.bin> <method>
//       Long-lived query daemon: builds (or opens, with --index) the
//       method once, then answers concurrent clients over the framed
//       binary protocol on 127.0.0.1:P (src/serve). SIGINT/SIGTERM
//       drains in-flight queries and exits; SIGHUP re-opens the index
//       without dropping the listener.
//   hydra ping
//       Round-trip a ping frame to a running daemon.
//   hydra queryd <data.bin> <k> [queries]
//       Send the same probe workload `hydra query` runs to a daemon and
//       print the answers in the identical format (the smoke script
//       diffs the two). The data file is read only to derive the probes.
//   hydra stats
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
// Every flag is declared once, in kFlags below: its value kind and range,
// the commands that accept it, the method trait it needs, and its help
// line. One pass reads argv against that table, so an unknown, repeated,
// malformed or misplaced flag, and any surplus positional, exits before
// any work — a flag is never swallowed silently. The usage text (`hydra`
// with no arguments) is generated from the same rows. A flag the chosen
// method's traits rule out (a --mode it does not advertise, --shards on a
// scan) is refused with the traits-derived reason, never silently
// answered some other way.
#include <csignal>
#include <cstring>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
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
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/sharded_index.h"
#include "storage/backend.h"
#include "util/table.h"
#include "util/timer.h"

namespace hydra {
namespace {

int Usage();

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

/// Splits a '|'-separated list ("query|range") into its items.
std::vector<std::string_view> SplitList(std::string_view list) {
  std::vector<std::string_view> items;
  for (size_t start = 0;;) {
    const size_t bar = list.find('|', start);
    items.push_back(list.substr(start, bar - start));
    if (bar == std::string_view::npos) return items;
    start = bar + 1;
  }
}

bool InList(const char* list, std::string_view word) {
  const std::vector<std::string_view> items = SplitList(list);
  return std::find(items.begin(), items.end(), word) != items.end();
}

/// "'a'", "'a' and 'b'", or "'a', 'b', and 'c'" from "a|b|c".
std::string QuotedList(const char* list) {
  const std::vector<std::string_view> items = SplitList(list);
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += items.size() == 2 ? " and " : i + 1 == items.size() ? ", and "
                                                                 : ", ";
    }
    out += "'" + std::string(items[i]) + "'";
  }
  return out;
}

/// How a flag's value is read. Each kind has one parser and one error
/// message shape, so every flag of a kind fails the same way.
enum class FlagKind {
  kBare,      // no value
  kUint,      // decimal integer in [min, max]
  kNumber,    // finite non-negative decimal number
  kFraction,  // decimal number in (0, 1]
  kEnum,      // one of the '|'-separated choices in `arg`
  kString,    // any token; paths and kernel-set names are checked in use
};

enum FlagId {
  kShards,
  kPort,
  kServeThreads,
  kCacheMb,
  kMaxInflight,
  kStorage,
  kPoolMb,
  kThreads,
  kQueryThreads,
  kMode,
  kEpsilon,
  kDelta,
  kMaxLeaves,
  kMaxRaw,
  kIndex,
  kTrace,
  kFull,
  kKernels,
  kFlagCount,
};

/// The upper end of the budget flags, which QuerySpec stores as int64_t.
constexpr uint64_t kUnbounded = std::numeric_limits<int64_t>::max();

/// Everything the CLI knows about one flag.
struct FlagRow {
  FlagId id;
  const char* name;
  FlagKind kind;
  /// '|'-separated commands that accept the flag.
  const char* commands;
  /// Usage placeholder of the value ("N", "<dir>"); the choices of kEnum.
  const char* arg;
  /// What the flag does, as the usage text lists it ('\n' continues).
  const char* help;
  /// kUint: the accepted range, and the value read when the flag is absent.
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t fallback = 0;
  /// kEnum: what the error calls an unknown choice.
  const char* noun = nullptr;
  /// Also accepted by every command that takes --shards, once --shards is
  /// given (--threads is then the fan-out width).
  bool sharded_too = false;
  /// The method trait the flag needs, refused with the trait's own reason
  /// member or, when that is null, with the fixed `refusal` text.
  bool core::MethodTraits::*trait = nullptr;
  std::string core::MethodTraits::*reason = nullptr;
  const char* refusal = nullptr;
};

// Rows in FlagId order, which is also the order flags are gated in. The
// caps keep absurd values from aborting in per-worker allocations or
// overflowing a size_t byte budget.
constexpr FlagRow kFlags[] = {
    {.id = kShards, .name = "--shards", .kind = FlagKind::kUint,
     .commands = "build|query|range|serve", .arg = "N",
     .help = "partition the collection into N contiguous shards,\n"
             "each with a full index; answers match the unsharded\n"
             "method. A sharded index reopens with the same N",
     .min = 1, .max = 1024, .trait = &core::MethodTraits::shardable,
     .reason = &core::MethodTraits::shard_reason},
    {.id = kPort, .name = "--port", .kind = FlagKind::kUint,
     .commands = "serve|ping|queryd|stats", .arg = "P",
     .help = "daemon port on 127.0.0.1 (default 7700; serve --port 0\n"
             "binds a free port and prints it)",
     .min = 0, .max = 65535, .fallback = 7700},
    {.id = kServeThreads, .name = "--serve-threads", .kind = FlagKind::kUint,
     .commands = "serve", .arg = "N",
     .help = "daemon query workers (default 1)", .min = 1, .max = 1024,
     .fallback = 1},
    {.id = kCacheMb, .name = "--cache-mb", .kind = FlagKind::kUint,
     .commands = "serve", .arg = "M",
     .help = "answer cache for exact queries (default 64; 0 = off)",
     .min = 0, .max = 4096, .fallback = 64},
    {.id = kMaxInflight, .name = "--max-inflight", .kind = FlagKind::kUint,
     .commands = "serve", .arg = "Q",
     .help = "admitted requests; more are refused (default 64)", .min = 1,
     .max = uint64_t{1} << 20, .fallback = 64},
    // Only the commands that open <data.bin> take a backend; under serve
    // the daemon owns it, not a queryd client.
    {.id = kStorage, .name = "--storage", .kind = FlagKind::kEnum,
     .commands = "build|query|range|serve", .arg = "ram|mmap",
     .help = "ram (default) bulk-loads <data.bin>; mmap maps it and\n"
             "reads through a bounded buffer pool, same answers",
     .noun = "storage backend"},
    {.id = kPoolMb, .name = "--pool-mb", .kind = FlagKind::kUint,
     .commands = "build|query|range|serve", .arg = "M",
     .help = "buffer-pool budget of --storage mmap (default 64)", .min = 1,
     .max = 65536},
    {.id = kThreads, .name = "--threads", .kind = FlagKind::kUint,
     .commands = "query|compare", .arg = "N",
     .help = "run a batch's queries concurrently; with --shards, the\n"
             "per-query fan-out width (the batch runs serially)",
     .min = 1, .max = 1024, .fallback = 1, .sharded_too = true},
    {.id = kQueryThreads, .name = "--query-threads", .kind = FlagKind::kUint,
     .commands = "query|range", .arg = "N",
     .help = "N workers share one query's search; exact and range\n"
             "answers match the serial run",
     .min = 1, .max = 1024, .fallback = 1},
    {.id = kMode, .name = "--mode", .kind = FlagKind::kEnum,
     .commands = "query|queryd", .arg = "exact|ng|epsilon|delta-epsilon",
     .help = "quality guarantee requested (default exact)", .noun = "mode"},
    {.id = kEpsilon, .name = "--epsilon", .kind = FlagKind::kNumber,
     .commands = "query|queryd", .arg = "X",
     .help = "relative error bound of the epsilon modes"},
    {.id = kDelta, .name = "--delta", .kind = FlagKind::kFraction,
     .commands = "query|queryd", .arg = "X",
     .help = "probability the epsilon bound holds (delta-epsilon)"},
    // A leaf budget that can never bind would be silently inert.
    {.id = kMaxLeaves, .name = "--max-leaves", .kind = FlagKind::kUint,
     .commands = "query|queryd", .arg = "N",
     .help = "budget: stop after N leaf visits", .min = 1,
     .max = kUnbounded, .trait = &core::MethodTraits::leaf_visit_budget,
     .refusal = "has no leaf-visit budget unit, so --max-leaves could never "
                "fire; cap work with --max-raw instead"},
    {.id = kMaxRaw, .name = "--max-raw", .kind = FlagKind::kUint,
     .commands = "query|queryd", .arg = "N",
     .help = "budget: stop after N raw series examinations", .min = 1,
     .max = kUnbounded},
    // `build` writes an index; it never reads one.
    {.id = kIndex, .name = "--index", .kind = FlagKind::kString,
     .commands = "query|range|serve", .arg = "<dir>",
     .help = "open the index `hydra build` saved instead of building",
     .trait = &core::MethodTraits::supports_persistence,
     .reason = &core::MethodTraits::persistence_reason},
    {.id = kTrace, .name = "--trace", .kind = FlagKind::kString,
     .commands = "build|query|range|serve", .arg = "<path>",
     .help = "write per-phase spans as Chrome trace-event JSON on\n"
             "exit (open it at ui.perfetto.dev)"},
    {.id = kFull, .name = "--full", .kind = FlagKind::kBare,
     .commands = "stats", .arg = nullptr,
     .help = "print the daemon's whole metrics registry, one metric\n"
             "per line"},
    {.id = kKernels, .name = "--kernels", .kind = FlagKind::kString,
     .commands = "build|query|range|compare", .arg = "<set>",
     .help = "force a distance kernel set (see: hydra kernels);\n"
             "HYDRA_KERNELS=<set> does the same, the flag wins"},
};
static_assert(std::size(kFlags) == kFlagCount);

constexpr bool RowsInIdOrder() {
  for (size_t i = 0; i < std::size(kFlags); ++i) {
    if (kFlags[i].id != static_cast<FlagId>(i)) return false;
  }
  return true;
}
static_assert(RowsInIdOrder(), "kFlags rows must follow FlagId order");

/// One flag as read from argv; `text` stays null while the flag is absent.
struct FlagValue {
  const char* text = nullptr;
  uint64_t num = 0;
  double real = 0.0;
};

/// A parsed command line: the positionals (argv[0] the program, argv[1]
/// the command) and every flag, indexed by FlagId.
struct Cli {
  std::vector<char*> argv;
  std::array<FlagValue, kFlagCount> flags;

  bool has(FlagId id) const { return flags[id].text != nullptr; }
  const char* text(FlagId id) const { return flags[id].text; }
  /// kUint value, or the row's fallback when the flag is absent.
  uint64_t num(FlagId id) const { return flags[id].num; }
  double real(FlagId id) const { return flags[id].real; }
};

/// Reads a flag's value by its row's kind; false after printing the
/// kind's one error shape.
bool ParseValue(const FlagRow& row, FlagValue* value) {
  const char* text = value->text;
  switch (row.kind) {
    case FlagKind::kBare:
    case FlagKind::kString:
      return true;
    case FlagKind::kUint:
      if (ParseUint(text, &value->num) && value->num >= row.min &&
          value->num <= row.max) {
        return true;
      }
      if (row.max == kUnbounded) {
        std::fprintf(stderr, "error: %s must be a positive integer, got '%s'\n",
                     row.name, text);
      } else {
        std::fprintf(stderr,
                     "error: %s must be an integer in [%llu, %llu], got "
                     "'%s'\n",
                     row.name, static_cast<unsigned long long>(row.min),
                     static_cast<unsigned long long>(row.max), text);
      }
      return false;
    case FlagKind::kNumber:
      if (ParseDouble(text, &value->real)) return true;
      std::fprintf(stderr,
                   "error: %s must be a finite non-negative number, got "
                   "'%s'\n",
                   row.name, text);
      return false;
    case FlagKind::kFraction:
      if (ParseDouble(text, &value->real) && value->real > 0.0 &&
          value->real <= 1.0) {
        return true;
      }
      std::fprintf(stderr, "error: %s must lie in (0, 1], got '%s'\n",
                   row.name, text);
      return false;
    case FlagKind::kEnum:
      if (InList(row.arg, text)) return true;
      std::fprintf(stderr, "error: unknown %s '%s' (%s)\n", row.noun, text,
                   row.arg);
      return false;
  }
  return false;
}

/// The one pass over argv: every `--token` is looked up in kFlags and its
/// value read and range-checked; every other token is a positional.
/// Returns false after printing the error.
bool ParseFlags(int argc, char** argv, Cli* cli) {
  for (const FlagRow& row : kFlags) cli->flags[row.id].num = row.fallback;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      cli->argv.push_back(argv[i]);
      continue;
    }
    const FlagRow* row = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const FlagRow& r) { return std::strcmp(r.name, argv[i]) == 0; });
    if (row == std::end(kFlags)) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return false;
    }
    FlagValue& value = cli->flags[row->id];
    if (value.text != nullptr) {
      std::fprintf(stderr, "error: %s given more than once\n", row->name);
      return false;
    }
    if (row->kind == FlagKind::kBare) {
      value.text = argv[i];
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", row->name);
      return false;
    }
    value.text = argv[++i];
    if (!ParseValue(*row, &value)) return false;
  }
  return true;
}

/// Whether `command` takes the flag; `sharded` says --shards is given.
bool Accepts(const FlagRow& row, std::string_view command, bool sharded) {
  return InList(row.commands, command) ||
         (row.sharded_too && sharded &&
          InList(kFlags[kShards].commands, command));
}

/// Refuses a flag the command does not use — swallowing it would let the
/// user believe e.g. a compare ran sharded — plus the one cross-flag rule
/// outside QuerySpec. Returns false after printing the error.
bool GateCommand(const Cli& cli) {
  const std::string_view command = cli.argv[1];
  for (const FlagRow& row : kFlags) {
    if (!cli.has(row.id) || Accepts(row, command, cli.has(kShards))) {
      continue;
    }
    std::fprintf(stderr, "error: %s is only supported by %s%s\n", row.name,
                 QuotedList(row.commands).c_str(),
                 row.sharded_too ? " (or any sharded command with --shards)"
                                 : "");
    return false;
  }
  if (cli.has(kPoolMb) &&
      (!cli.has(kStorage) || std::string_view(cli.text(kStorage)) != "mmap")) {
    std::fprintf(stderr,
                 "error: --pool-mb requires --storage mmap (the ram "
                 "backend has no buffer pool)\n");
    return false;
  }
  return true;
}

/// Refuses a flag the method's traits rule out, with the method's own
/// reason — never a silently unsharded "sharded" run or an inert budget.
bool GateTraits(const core::MethodTraits& traits, const std::string& method,
                const Cli& cli) {
  for (const FlagRow& row : kFlags) {
    if (row.trait == nullptr || traits.*row.trait || !cli.has(row.id)) {
      continue;
    }
    if (row.reason != nullptr) {
      std::fprintf(stderr, "error: %s does not support %s (%s)\n",
                   method.c_str(), row.name, (traits.*row.reason).c_str());
    } else {
      std::fprintf(stderr, "error: %s %s\n", method.c_str(), row.refusal);
    }
    return false;
  }
  return true;
}

/// Fills `*spec` (kind kKnn; the caller sets k) from the QuerySpec flags,
/// whose values the parse pass already checked. Returns false after
/// printing an error: every inconsistent flag combination, or mode the
/// method's traits do not advertise, exits cleanly instead of reaching a
/// CHECK abort.
bool BuildQuerySpec(const Cli& cli, const core::MethodTraits& traits,
                    const std::string& method_name, core::QuerySpec* spec) {
  for (const core::QualityMode mode :
       {core::QualityMode::kExact, core::QualityMode::kNgApprox,
        core::QualityMode::kEpsilon, core::QualityMode::kDeltaEpsilon}) {
    if (cli.has(kMode) && core::QualityModeName(mode) ==
                              std::string_view(cli.text(kMode))) {
      spec->mode = mode;
    }
  }
  const bool eps_mode = spec->mode == core::QualityMode::kEpsilon ||
                        spec->mode == core::QualityMode::kDeltaEpsilon;
  if (cli.has(kEpsilon) && !eps_mode) {
    std::fprintf(stderr, "error: --epsilon requires --mode epsilon or "
                         "delta-epsilon\n");
    return false;
  }
  // The converse too: a requested relaxation with no bound parameter would
  // silently run at exact cost while labeled approximate.
  if (eps_mode && !cli.has(kEpsilon)) {
    std::fprintf(stderr, "error: --mode %s requires --epsilon\n",
                 core::QualityModeName(spec->mode));
    return false;
  }
  if (cli.has(kDelta) && spec->mode != core::QualityMode::kDeltaEpsilon) {
    std::fprintf(stderr, "error: --delta requires --mode delta-epsilon\n");
    return false;
  }
  if (spec->mode == core::QualityMode::kDeltaEpsilon && !cli.has(kDelta)) {
    std::fprintf(stderr,
                 "error: --mode delta-epsilon requires --delta (1.0 is "
                 "plain epsilon)\n");
    return false;
  }
  if (cli.has(kEpsilon)) spec->epsilon = cli.real(kEpsilon);
  if (cli.has(kDelta)) spec->delta = cli.real(kDelta);
  // Absent budgets read 0, QuerySpec's "no cap".
  spec->max_visited_leaves = static_cast<int64_t>(cli.num(kMaxLeaves));
  spec->max_raw_series = static_cast<int64_t>(cli.num(kMaxRaw));
  if (spec->mode == core::QualityMode::kNgApprox && spec->has_budget()) {
    std::fprintf(stderr, "error: budgets do not apply to --mode ng (it "
                         "already visits at most one leaf)\n");
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

/// Parses the <k> positional of `query` and `queryd`.
bool ParseK(const char* arg, uint64_t* k) {
  if (!ParseUint(arg, k)) {
    BadNumber("k", arg);
    return false;
  }
  if (*k == 0) {
    std::fprintf(stderr, "error: k must be positive\n");
    return false;
  }
  return true;
}

/// The probe workload is generated up front, so an absurd [queries] count
/// would abort on allocation instead of exiting 1.
constexpr uint64_t kMaxQueries = 1000000;

/// Parses the optional [queries] positional at argv[i] (default 10).
bool ParseQueries(const Cli& cli, size_t i, uint64_t* queries) {
  *queries = 10;
  if (cli.argv.size() <= i) return true;
  if (!ParseUint(cli.argv[i], queries)) {
    BadNumber("queries", cli.argv[i]);
    return false;
  }
  if (*queries <= kMaxQueries) return true;
  std::fprintf(stderr, "error: queries must be at most %llu, got '%s'\n",
               static_cast<unsigned long long>(kMaxQueries), cli.argv[i]);
  return false;
}

/// Creates the method a data command runs once the name is known and the
/// trait gates pass: the plain method, or a sharded container over it
/// whose shard fan-out is --threads wide. Returns null after printing the
/// refusal.
std::unique_ptr<core::SearchMethod> MakeMethod(const std::string& name,
                                               const Cli& cli) {
  // User input must produce a clean error, never a HYDRA_CHECK abort.
  const std::vector<std::string> known = bench::AllMethodNames();
  if (std::find(known.begin(), known.end(), name) == known.end()) {
    std::fprintf(stderr, "error: unknown method '%s' (see: hydra methods)\n",
                 name.c_str());
    return nullptr;
  }
  auto method = bench::CreateMethod(name);
  if (!GateTraits(method->traits(), name, cli)) return nullptr;
  if (!cli.has(kShards)) return method;
  return bench::CreateShardedMethod(name,
                                    static_cast<size_t>(cli.num(kShards)),
                                    static_cast<size_t>(cli.num(kThreads)));
}

/// The measured-I/O epilogue of `query` and `range` on the mmap backend:
/// the pool ledger of the batch (a miss is one run pread, so the `preads`
/// slot repeats the misses), plus the reconciliation of measured pool
/// misses (one per run read) against the modeled random-access count (the
/// paper's ledger). Run reads coalesce nearby candidates into one pread,
/// so measured misses <= modeled accesses unless a leaf's survivors lie
/// far apart in the file and take several runs; the line makes that
/// relation visible instead of leaving two unconnected numbers. Prints
/// nothing on the ram backend, whose output must stay byte-identical.
void PrintStorageSummary(const storage::StorageHandle& handle,
                         const core::SearchStats& total) {
  if (handle.backend() != storage::StorageBackend::kMmap) return;
  const long long misses = static_cast<long long>(total.pool_misses);
  std::printf("storage: %lld pool misses, %lld direct reads, %lld preads, "
              "%lld bytes\n",
              misses, static_cast<long long>(total.pool_direct_reads), misses,
              static_cast<long long>(total.pool_bytes_read));
  std::printf("storage check: measured pool misses %lld vs modeled random "
              "accesses %lld (%s)\n",
              misses, static_cast<long long>(total.random_seeks),
              misses <= total.random_seeks
                  ? "consistent: run coalescing makes measured <= modeled"
                  : "measured exceeds modeled: a leaf's survivors span "
                    "several runs");
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

int CmdGen(const Cli& cli) {
  char* const* argv = cli.argv.data();
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

/// Empty when `method` can index series of `data`'s length; otherwise
/// what it needs (MethodTraits::length_multiple).
std::string LengthRefusal(const core::SearchMethod& method,
                          const core::Dataset& data) {
  const size_t multiple = method.traits().length_multiple;
  if (data.length() % multiple == 0) return "";
  return "needs a series length divisible by " + std::to_string(multiple) +
         " (this file's is " + std::to_string(data.length()) + ")";
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

/// The rest of the preamble `build`, `query`, `range` and `serve` share:
/// open <data.bin> under the --storage backend, build or open the method
/// over it, and print the sharded layout. The pooled backend prints its
/// geometry line; ram prints nothing extra, keeping output byte-identical
/// to historical runs. The shard count printed is the built/opened
/// container's (after Open the manifest wins), and the fan-out width the
/// effective one: never more workers than shards. Returns false after
/// printing the error.
bool OpenData(const Cli& cli, core::SearchMethod* method,
              storage::StorageHandle* stored) {
  storage::StorageOptions options;
  if (cli.has(kStorage)) {
    options.backend = storage::ParseStorageBackend(cli.text(kStorage)).value();
  }
  if (cli.has(kPoolMb)) {
    options.pool.budget_bytes = static_cast<size_t>(cli.num(kPoolMb)) << 20;
  }
  auto opened = storage::StorageHandle::Open(cli.argv[2], "cli", options);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().message().c_str());
    return false;
  }
  *stored = std::move(opened).value();
  const std::string refusal = LengthRefusal(*method, stored->dataset());
  if (!refusal.empty()) {
    std::fprintf(stderr, "error: %s %s\n", method->name().c_str(),
                 refusal.c_str());
    return false;
  }
  if (stored->backend() == storage::StorageBackend::kMmap) std::printf("%s\n", stored->Describe().c_str());
  if (!BuildOrOpen(method, stored->dataset(), cli.text(kIndex))) return false;
  const auto* sharded = dynamic_cast<const shard::ShardedIndex*>(method);
  if (sharded != nullptr) {
    std::printf("sharded over %zu shards (fan-out threads: %zu)\n",
                sharded->shard_count(),
                std::min<size_t>(static_cast<size_t>(cli.num(kThreads)),
                                 sharded->shard_count()));
  }
  return true;
}

/// One k-NN answer line. `query` and `queryd` both print through it, so a
/// served answer stream diffs byte for byte against a direct run. The
/// delivered guarantee and budget outcome are part of the answer: without
/// them an approximate or truncated run is indistinguishable from an
/// exact one in terminal output.
void PrintAnswer(size_t q, const core::QueryResult& r) {
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

int CmdServe(const Cli& cli) {
  auto method = MakeMethod(cli.argv[3], cli);
  if (method == nullptr) return 1;
  storage::StorageHandle stored;
  if (!OpenData(cli, method.get(), &stored)) return 1;
  const core::Dataset& data = stored.dataset();

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
  options.port = static_cast<uint16_t>(cli.num(kPort));
  options.serve_threads = static_cast<size_t>(cli.num(kServeThreads));
  options.cache_bytes = static_cast<size_t>(cli.num(kCacheMb)) << 20;
  options.max_inflight = static_cast<size_t>(cli.num(kMaxInflight));
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
              static_cast<unsigned long long>(cli.num(kServeThreads)),
              static_cast<unsigned long long>(cli.num(kCacheMb)),
              static_cast<unsigned long long>(cli.num(kMaxInflight)));
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
      auto fresh = MakeMethod(cli.argv[3], cli);
      if (fresh == nullptr ||
          !BuildOrOpen(fresh.get(), data, cli.text(kIndex))) {
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

int CmdPing(const Cli& cli) {
  serve::Client client;
  util::WallTimer timer;
  util::Status s =
      client.Connect("127.0.0.1", static_cast<uint16_t>(cli.num(kPort)));
  if (s.ok()) s = client.Ping();
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("pong from 127.0.0.1:%llu (%.2f ms)\n",
              static_cast<unsigned long long>(cli.num(kPort)),
              timer.Seconds() * 1e3);
  return 0;
}

int CmdStats(const Cli& cli) {
  const bool full = cli.has(kFull);
  serve::Client client;
  util::Status s =
      client.Connect("127.0.0.1", static_cast<uint16_t>(cli.num(kPort)));
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

int CmdQueryd(const Cli& cli) {
  uint64_t k = 0;
  uint64_t queries = 0;
  if (!ParseK(cli.argv[3], &k) || !ParseQueries(cli, 4, &queries)) return 1;
  // Client-side parsing is syntactic only: the *server's* method traits
  // decide which modes are honestly answerable, and it refuses with a
  // BAD_QUERY frame — so validate against permissive traits here.
  core::MethodTraits permissive;
  permissive.supports_ng = true;
  permissive.supports_epsilon = true;
  permissive.supports_delta_epsilon = true;
  core::QuerySpec spec = core::QuerySpec::Knn(k);
  if (!BuildQuerySpec(cli, permissive, "the served method", &spec)) {
    return 1;
  }
  auto loaded = io::ReadSeriesFile(cli.argv[2], "cli");
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().message().c_str());
    return 1;
  }
  const core::Dataset data = std::move(loaded).value();
  const gen::Workload probe = gen::CtrlWorkload(data, queries, 1);

  serve::Client client;
  const util::Status connected =
      client.Connect("127.0.0.1", static_cast<uint16_t>(cli.num(kPort)));
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
    PrintAnswer(q, answer.result);
  }
  std::printf("answered %zu queries via 127.0.0.1:%llu (%zu from cache)\n",
              probe.queries.size(),
              static_cast<unsigned long long>(cli.num(kPort)), cached);
  return 0;
}

int CmdQuery(const Cli& cli) {
  // Validate the cheap arguments before reading the (possibly huge) file.
  uint64_t k = 0;
  uint64_t queries = 0;
  if (!ParseK(cli.argv[4], &k) || !ParseQueries(cli, 5, &queries)) return 1;
  auto method = MakeMethod(cli.argv[3], cli);
  if (method == nullptr) return 1;
  const core::MethodTraits traits = method->traits();
  core::QuerySpec spec = core::QuerySpec::Knn(k);
  if (!BuildQuerySpec(cli, traits, method->name(), &spec)) {
    return 1;
  }
  const uint64_t threads = cli.num(kThreads);
  const uint64_t query_threads = cli.num(kQueryThreads);
  const bool sharded = cli.has(kShards);
  spec.query_threads = static_cast<size_t>(query_threads);
  if (query_threads > 1 &&
      (spec.mode != core::QualityMode::kExact || spec.has_budget())) {
    // Approximate and budgeted answers depend on visit order, so the
    // search stays serial — note it rather than let the user believe the
    // relaxed run was parallel.
    std::printf("note: --query-threads applies to pure exact plans only; "
                "this %s%s run keeps its search serial\n",
                core::QualityModeName(spec.mode),
                spec.has_budget() ? " budgeted" : "");
  }
  storage::StorageHandle stored;
  if (!OpenData(cli, method.get(), &stored)) return 1;
  const gen::Workload probe = gen::CtrlWorkload(stored.dataset(), queries, 1);
  // With --shards, the parallelism lives inside each query (the shard
  // fan-out); the batch itself runs serially.
  const size_t batch_threads = sharded ? 1 : static_cast<size_t>(threads);
  util::WallTimer timer;
  const core::BatchResult batch =
      bench::SearchKnnBatch(method.get(), probe, spec, batch_threads);
  const double wall = timer.Seconds();
  for (size_t q = 0; q < batch.queries.size(); ++q) {
    PrintAnswer(q, batch.queries[q]);
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
  if (threads > 1 && !sharded) {
    if (batch.queries.size() == 1) {
      // --threads parallelizes across queries; with one query it silently
      // does nothing — say so instead of implying a concurrent run.
      std::printf("note: --threads parallelizes across queries and a "
                  "single-query batch runs serially; use --query-threads "
                  "to parallelize within the query\n");
    } else {
      std::printf("%zu queries on %zu threads: %.3fs wall (%.1f queries/s)\n",
                  batch.queries.size(), batch.threads_used, wall,
                  static_cast<double>(batch.queries.size()) / wall);
    }
  }
  PrintStorageSummary(stored, batch.total);
  return 0;
}

int CmdRange(const Cli& cli) {
  // Validate the cheap arguments before reading the (possibly huge) file.
  double radius = 0.0;
  if (!ParseDouble(cli.argv[4], &radius)) {
    std::fprintf(stderr, "error: radius must be a non-negative number\n");
    return 1;
  }
  uint64_t queries = 0;
  if (!ParseQueries(cli, 5, &queries)) return 1;
  auto method = MakeMethod(cli.argv[3], cli);
  if (method == nullptr) return 1;
  storage::StorageHandle stored;
  if (!OpenData(cli, method.get(), &stored)) return 1;
  core::QuerySpec spec = core::QuerySpec::Range(radius);
  spec.query_threads = static_cast<size_t>(cli.num(kQueryThreads));
  const gen::Workload probe = gen::CtrlWorkload(stored.dataset(), queries, 1);
  core::SearchStats total;
  for (size_t q = 0; q < probe.queries.size(); ++q) {
    const core::QueryResult r = method->Execute(probe.queries[q], spec);
    total.Add(r.stats);
    std::printf("query %2zu: %zu series within r=%.3f [examined %lld]\n", q,
                r.neighbors.size(), radius,
                static_cast<long long>(r.stats.raw_series_examined));
  }
  PrintStorageSummary(stored, total);
  return 0;
}

int CmdBuild(const Cli& cli) {
  auto method = MakeMethod(cli.argv[3], cli);
  if (method == nullptr) return 1;
  // Traits-derived refusal before any expensive work: a method without
  // DoSave/DoOpen hooks can never produce an index directory.
  if (!method->traits().supports_persistence) {
    std::fprintf(stderr,
                 "error: %s does not support a persisted index (%s)\n",
                 method->name().c_str(),
                 method->traits().persistence_reason.c_str());
    return 1;
  }
  storage::StorageHandle stored;
  if (!OpenData(cli, method.get(), &stored)) return 1;
  const util::Result<int64_t> saved = method->Save(cli.argv[4]);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.status().message().c_str());
    return 1;
  }
  std::printf("saved %s index to %s (%lld bytes)\n", method->name().c_str(),
              cli.argv[4], static_cast<long long>(saved.value()));
  return 0;
}

int CmdCompare(const Cli& cli) {
  uint64_t queries = 0;
  if (!ParseQueries(cli, 3, &queries)) return 1;
  auto loaded = io::ReadSeriesFile(cli.argv[2], "cli");
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().message().c_str());
    return 1;
  }
  const core::Dataset data = std::move(loaded).value();
  const gen::Workload probe = gen::CtrlWorkload(data, queries, 1);
  const uint64_t threads = cli.num(kThreads);

  util::Table table({"method", "idx_s", "exact100_HDD_s", "exact100_SSD_s",
                     "pruning"});
  const auto hdd = io::DiskModel::ScaledHdd();
  const auto ssd = io::DiskModel::Ssd();
  for (const std::string& name : bench::BestSixNames()) {
    auto method = bench::CreateMethod(name);
    const std::string refusal = LengthRefusal(*method, data);
    if (!refusal.empty()) {
      std::printf("note: skipping %s, which %s\n", name.c_str(),
                  refusal.c_str());
      continue;
    }
    const bench::MethodRun run = bench::RunMethodParallel(
        method.get(), data, probe, /*k=*/1, static_cast<size_t>(threads));
    table.AddRow({name, util::Table::Num(bench::IndexSeconds(run, hdd), 3),
                  util::Table::Num(bench::Exact100Seconds(run, hdd), 3),
                  util::Table::Num(bench::Exact100Seconds(run, ssd), 3),
                  util::Table::Num(
                      bench::MeanPruningRatio(run, data.size()), 3)});
  }
  table.Print("method comparison on " + std::string(cli.argv[2]));
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

int CmdKernels(const Cli& cli) {
  if (cli.argv.size() == 3) {
    if (std::string_view(cli.argv[2]) != "names") return Usage();
    // Scripting mode: the supported set names, one per line (the CI
    // dispatch matrix loops over this).
    for (const core::simd::KernelSet* set :
         core::simd::SupportedKernelSets()) {
      std::printf("%s\n", set->name);
    }
    return 0;
  }
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

int CmdMethods(const Cli& /*cli*/) {
  // The full traits matrix: quality modes, index persistence and
  // sharding, each derived from the method's own traits() so this listing
  // can never drift from what Execute/Save/Open actually accept.
  util::Table table({"method", "modes", "persistent", "shardable"});
  for (const std::string& name : bench::AllMethodNames()) {
    const core::MethodTraits traits = bench::CreateMethod(name)->traits();
    std::string modes = "exact";
    if (traits.supports_ng) modes += ",ng";
    if (traits.supports_epsilon) modes += ",epsilon";
    if (traits.supports_delta_epsilon) modes += ",delta-epsilon";
    table.AddRow({name, modes, traits.supports_persistence ? "yes" : "no",
                  traits.shardable ? "yes" : "no"});
  }
  table.Print("method traits");
  return 0;
}

/// Every command: its positional synopsis, how many positionals it takes
/// after the command name, and its handler.
struct CommandRow {
  const char* name;
  const char* synopsis;
  size_t min_args;
  size_t max_args;
  int (*run)(const Cli&);
};

constexpr CommandRow kCommands[] = {
    {"gen", "<family> <count> <length> <seed> <out.bin>", 5, 5, CmdGen},
    {"build", "<data.bin> <method> <index-dir>", 3, 3, CmdBuild},
    {"query", "<data.bin> <method> <k> [queries=10]", 3, 4, CmdQuery},
    {"range", "<data.bin> <method> <radius> [queries=10]", 3, 4, CmdRange},
    {"compare", "<data.bin> [queries=10]", 1, 2, CmdCompare},
    {"serve", "<data.bin> <method>", 2, 2, CmdServe},
    {"ping", "", 0, 0, CmdPing},
    {"queryd", "<data.bin> <k> [queries=10]", 2, 3, CmdQueryd},
    {"stats", "", 0, 0, CmdStats},
    {"methods", "", 0, 0, CmdMethods},
    {"kernels", "[names]", 0, 1, CmdKernels},
};

/// "--flag VALUE" as the usage text shows it.
std::string FlagHead(const FlagRow& row) {
  return row.arg == nullptr ? row.name
                            : std::string(row.name) + " " + row.arg;
}

/// Prints the synopsis of every command, followed by the flags it accepts
/// wrapped under its first argument, then every flag's help lines.
int Usage() {
  std::string text = "usage:\n";
  for (const CommandRow& command : kCommands) {
    text += std::string("  hydra ") + command.name +
            (command.synopsis[0] != '\0' ? " " : "") + command.synopsis;
    const std::string indent(9 + std::strlen(command.name), ' ');
    size_t column = text.size() - text.rfind('\n') - 1;
    for (const FlagRow& row : kFlags) {
      if (!Accepts(row, command.name, /*sharded=*/true)) continue;
      const std::string item = "[" + FlagHead(row) + "]";
      const bool wrap = column + 1 + item.size() > 78;
      text += (wrap ? "\n" + indent : " ") + item;
      column = (wrap ? indent.size() : column + 1) + item.size();
    }
    text += "\n";
  }
  text += "\nflags:\n";
  constexpr size_t kHelpColumn = 24;
  const std::string pad(kHelpColumn, ' ');
  for (const FlagRow& row : kFlags) {
    const std::string head = "  " + FlagHead(row);
    text += head.size() < kHelpColumn ? head + pad.substr(head.size())
                                      : head + "\n" + pad;
    for (const char* c = row.help; *c != '\0'; ++c) {
      text += *c == '\n' ? "\n" + pad : std::string(1, *c);
    }
    text += "\n";
  }
  std::fputs(text.c_str(), stderr);
  return 2;
}

int Main(int argc, char** argv) {
  Cli cli;
  if (!ParseFlags(argc, argv, &cli)) return 1;
  const CommandRow* command = nullptr;
  if (cli.argv.size() >= 2) {
    for (const CommandRow& row : kCommands) {
      if (std::string_view(row.name) == cli.argv[1]) command = &row;
    }
  }
  if (command == nullptr || cli.argv.size() - 2 < command->min_args ||
      cli.argv.size() - 2 > command->max_args) {
    return Usage();
  }
  if (!GateCommand(cli)) return 1;
  const char* trace_path = cli.text(kTrace);
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
  if (cli.has(kKernels)) {
    const util::Status forced = core::simd::UseKernels(cli.text(kKernels));
    if (!forced.ok()) {
      std::fprintf(stderr, "error: %s\n", forced.message().c_str());
      return 1;
    }
  }
  const int rc = command->run(cli);
  if (trace_path != nullptr) {
    obs::Tracer& tracer = obs::Tracer::Get();
    tracer.SetMeta("command", command->name);
    if (cli.argv.size() > 3) tracer.SetMeta("method", cli.argv[3]);
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
