// Instrumentation counters shared by all methods: the paper's measures
// (Section 4.2) are computed from these.
#ifndef HYDRA_CORE_SEARCH_STATS_H_
#define HYDRA_CORE_SEARCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace hydra::core {

/// Quality guarantee of a query answer, declared from strongest to weakest
/// so that merging ledgers can keep the weakest guarantee delivered:
///   kExact        — the true answer (Definition 1 of the paper).
///   kEpsilon      — every distance within (1+epsilon) of the truth
///                   (Definition 5; deterministic bound).
///   kDeltaEpsilon — the epsilon bound holds with probability >= delta
///                   (Definition 6; probabilistic bound).
///   kNgApprox     — no guarantee (Definition 7: one-path descent, or any
///                   answer truncated by an execution budget).
enum class QualityMode : uint8_t {
  kExact = 0,
  kEpsilon = 1,
  kDeltaEpsilon = 2,
  kNgApprox = 3,
};

/// Short stable name of a mode ("exact", "epsilon", ...), used by the CLI
/// flags and the honest-fallback messages.
constexpr const char* QualityModeName(QualityMode mode) {
  switch (mode) {
    case QualityMode::kExact:
      return "exact";
    case QualityMode::kEpsilon:
      return "epsilon";
    case QualityMode::kDeltaEpsilon:
      return "delta-epsilon";
    case QualityMode::kNgApprox:
      return "ng";
  }
  return "unknown";
}

/// Per-query measurement ledger. Sequential reads and random seeks follow
/// the paper's definitions: one random disk access corresponds to one leaf
/// access for tree indexes, and to one skip for skip-sequential methods
/// (ADS+, VA+file) and multi-step refinement (Stepwise).
///
/// Each query owns its ledger, so concurrent queries never share one; the
/// batch engine merges per-query ledgers afterwards, in workload order.
/// Two kinds of seconds exist in hydra: `cpu_seconds` here is *measured*
/// wall-clock compute time, while I/O seconds are *modeled* from the
/// counters by io::DiskModel (the paper's datasets are disk-resident; ours
/// are memory-resident with charged I/O).
struct SearchStats {
  /// Full-resolution distance evaluations started (including abandoned
  /// ones). Dimensionless count.
  int64_t distance_computations = 0;
  /// Raw series fetched for refinement; the pruning ratio is
  /// 1 - raw_series_examined / dataset_size. Dimensionless count.
  int64_t raw_series_examined = 0;
  /// Lower-bound evaluations against summaries or nodes.
  int64_t lower_bound_computations = 0;
  /// Index nodes visited (internal + leaf).
  int64_t nodes_visited = 0;
  /// Series read without an intervening seek.
  int64_t sequential_reads = 0;
  /// Random disk accesses (seeks).
  int64_t random_seeks = 0;
  /// Bytes fetched from the simulated raw/leaf/approximation files.
  int64_t bytes_read = 0;
  /// *Measured* storage counters (CounterKind::kMeasured), never mixed
  /// with the modeled counters above. pool_hits (series served from a
  /// resident page) and pool_evictions (resident pages dropped) are always
  /// 0: io::RunReader holds no pages. They stay in the ledger because
  /// the serve protocol and the benchmark read them. pool_misses counts
  /// run reads from the data file, each one pread(2) call.
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  int64_t pool_evictions = 0;
  /// Bytes actually transferred by those preads.
  int64_t pool_bytes_read = 0;
  /// Reads served from a cursor's run scratch (io::CountedStorage): the
  /// bytes came from a run pread, whose own pread is counted once above,
  /// not per series.
  int64_t pool_direct_reads = 0;
  /// *Measured* wall-clock compute seconds of the query. Excludes modeled
  /// I/O time (io::DiskModel derives that from the counters above).
  double cpu_seconds = 0.0;
  /// Guarantee actually delivered for this answer — set by
  /// SearchMethod::Execute, never by the traversal drivers. Differs from
  /// the requested mode when the method does not support it (honest
  /// fallback) or when a budget truncated the search (no guarantee left).
  QualityMode answer_mode_delivered = QualityMode::kExact;
  /// True when an explicit QuerySpec budget (max_visited_leaves /
  /// max_raw_series) stopped the traversal before it finished.
  bool budget_exhausted = false;

  /// Accumulates `other` into this ledger (every kLedgerCounters row and
  /// cpu_seconds). The delivered mode merges to the *weakest* guarantee of
  /// the two and budget_exhausted to "any budget fired", so a batch ledger
  /// reports the guarantee that holds for every query of the batch.
  void Add(const SearchStats& other);
};

/// kModeled counters are charged by the algorithm (deterministic on any
/// backend; io::DiskModel prices the access ones); kMeasured ones count
/// real pread I/O of the mmap backend (zero on the in-RAM backend).
enum class CounterKind : uint8_t { kModeled, kMeasured };

/// One integer counter of the ledger. `name` is its one spelling: the
/// registry suffix (`<prefix>.<name>`), the STATS and bench JSON key.
struct LedgerCounter {
  const char* name;
  CounterKind kind;
  int64_t SearchStats::*member;
};

/// The ledger's integer counters in struct order. Every enumeration of the
/// ledger loops over this table: a new counter is one member plus one row.
inline constexpr LedgerCounter kLedgerCounters[] = {
    {.name = "distance_computations", .kind = CounterKind::kModeled,
     .member = &SearchStats::distance_computations},
    {.name = "raw_series_examined", .kind = CounterKind::kModeled,
     .member = &SearchStats::raw_series_examined},
    {.name = "lower_bound_computations", .kind = CounterKind::kModeled,
     .member = &SearchStats::lower_bound_computations},
    {.name = "nodes_visited", .kind = CounterKind::kModeled,
     .member = &SearchStats::nodes_visited},
    {.name = "sequential_reads", .kind = CounterKind::kModeled,
     .member = &SearchStats::sequential_reads},
    {.name = "random_seeks", .kind = CounterKind::kModeled,
     .member = &SearchStats::random_seeks},
    {.name = "bytes_read", .kind = CounterKind::kModeled,
     .member = &SearchStats::bytes_read},
    {.name = "pool_hits", .kind = CounterKind::kMeasured,
     .member = &SearchStats::pool_hits},
    {.name = "pool_misses", .kind = CounterKind::kMeasured,
     .member = &SearchStats::pool_misses},
    {.name = "pool_evictions", .kind = CounterKind::kMeasured,
     .member = &SearchStats::pool_evictions},
    {.name = "pool_bytes_read", .kind = CounterKind::kMeasured,
     .member = &SearchStats::pool_bytes_read},
    {.name = "pool_direct_reads", .kind = CounterKind::kMeasured,
     .member = &SearchStats::pool_direct_reads},
};
static_assert(sizeof(SearchStats) == (std::size(kLedgerCounters) + 2) * 8,
              "every int64_t member of SearchStats needs a table row");

inline void SearchStats::Add(const SearchStats& other) {
  for (const LedgerCounter& counter : kLedgerCounters) {
    this->*counter.member += other.*counter.member;
  }
  cpu_seconds += other.cpu_seconds;
  answer_mode_delivered =
      std::max(answer_mode_delivered, other.answer_mode_delivered);
  budget_exhausted = budget_exhausted || other.budget_exhausted;
}

/// Index-construction ledger. Output time is modeled from bytes_written and
/// random_writes via io::DiskModel.
struct BuildStats {
  /// *Measured* wall-clock compute seconds of construction (modeled I/O
  /// seconds are derived separately via io::DiskModel).
  double cpu_seconds = 0.0;
  /// *Measured* wall-clock seconds spent opening a persisted index
  /// (SearchMethod::Open). 0 for a fresh Build — load time and build time
  /// are separate costs and are never mixed into one number.
  double load_seconds = 0.0;
  /// Bytes written to the simulated index/leaf files.
  int64_t bytes_written = 0;
  /// Random write seeks during construction.
  int64_t random_writes = 0;
  /// Bytes read from the raw file during construction (bulk loading reads
  /// the collection once; some methods read it twice).
  int64_t bytes_read = 0;
  /// Random read seeks during construction.
  int64_t random_reads = 0;
};

}  // namespace hydra::core

#endif  // HYDRA_CORE_SEARCH_STATS_H_
