// The unified interface every similarity search method implements: this is
// the paper's "same conditions" evaluation contract.
#ifndef HYDRA_CORE_METHOD_H_
#define HYDRA_CORE_METHOD_H_

#include <limits>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/knn.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "core/types.h"
#include "util/check.h"
#include "util/status.h"

namespace hydra::io {
class IndexWriter;
class IndexReader;
}  // namespace hydra::io

namespace hydra::core {

/// Structural footprint of an index (Figure 8 of the paper).
struct Footprint {
  /// Index nodes of any kind (internal + leaf).
  int64_t total_nodes = 0;
  /// Leaf nodes only.
  int64_t leaf_nodes = 0;
  /// Resident bytes: summaries, tree structure, breakpoint tables.
  int64_t memory_bytes = 0;
  /// Simulated on-disk bytes: leaf files, approximation files.
  int64_t disk_bytes = 0;
  /// Per-leaf occupancy in [0,1] (leaf fill factor).
  std::vector<double> leaf_fill_fractions;
  /// Per-leaf depth (root = 0).
  std::vector<int> leaf_depths;
};

/// Result of one query, from Execute and every driver hook behind it: the
/// answers (squared distances, sorted ascending — k-NN neighbors or r-range
/// matches) plus the measurement ledger for this query alone. The ledger
/// also records which quality guarantee was actually delivered and whether
/// an execution budget fired; the accessors below surface both.
struct QueryResult {
  std::vector<Neighbor> neighbors;
  SearchStats stats;

  /// Guarantee actually delivered (may be stronger than requested — a
  /// method without ng support answers an ng request exactly — and drops
  /// to QualityMode::kNgApprox when a budget truncated the traversal).
  QualityMode delivered() const { return stats.answer_mode_delivered; }
  /// True when max_visited_leaves / max_raw_series stopped the search.
  bool budget_fired() const { return stats.budget_exhausted; }
};

/// Aggregated answers of a batch of k-NN queries executed over one method
/// (serially or concurrently). Per-query entries are always kept in
/// workload order, independent of the thread interleaving that produced
/// them, and `total` is the per-query ledgers merged in that same order —
/// so a batch run is deterministic and comparable against a serial run.
struct BatchResult {
  /// One result per query, in workload order.
  std::vector<QueryResult> queries;
  /// All per-query ledgers accumulated in workload order. cpu_seconds is
  /// the sum of per-query wall-clock compute, i.e. total CPU *work*, not
  /// batch wall-clock time (which shrinks with threads). The merged
  /// answer_mode_delivered is the weakest guarantee of the batch.
  SearchStats total;
  /// Worker threads the batch actually ran on.
  size_t threads_used = 1;
};

/// Static capabilities a method advertises to the harness.
struct MethodTraits {
  /// Per-mode quality support matrix (Table 1 of the companion study).
  /// kExact is universal; the flags advertise the approximate modes so
  /// the harness and CLI can report honest fallbacks instead of silently
  /// returning exact answers. Sequential scans are exact-only; the four
  /// ng-capable trees (ADS+, DSTree, iSAX2+, SFA) support every mode;
  /// M-tree, R*-tree, and VA+file add kEpsilon only.
  bool supports_ng = false;
  bool supports_epsilon = false;
  bool supports_delta_epsilon = false;
  /// True when the max_visited_leaves budget can actually bind: the
  /// traversal visits more than one leaf as it searches. False for the
  /// sequential scans and the VA+file (no leaves at all) and for ADS+
  /// (SIMS visits exactly one leaf, then refines skip-sequentially), so
  /// the CLI can refuse a leaf budget that could never fire instead of
  /// silently ignoring it. The max_raw_series budget binds everywhere.
  bool leaf_visit_budget = false;
  /// True when the method implements DoSave/DoOpen: its index can be
  /// persisted once by `hydra build` and reopened read-only by any number
  /// of later processes. False for the sequential scans (there is no index
  /// structure to persist); Save/Open refuse with `persistence_reason`
  /// instead of silently rebuilding, mirroring the quality-mode honesty
  /// contract.
  bool supports_persistence = false;
  /// Human-readable reason when supports_persistence is false (surfaced by
  /// the CLI's exit-1 refusal and by `hydra methods`).
  std::string persistence_reason{};
  /// True when the method can serve as one shard of a shard::ShardedIndex:
  /// it builds over any contiguous Dataset slice, addresses series by
  /// local id, and its k-NN driver honors KnnPlan::shared_bound. True for
  /// the seven index methods; false for the sequential scans (no index
  /// partition to build — the batch engine's --threads already
  /// parallelizes them) and for the sharded container itself (no nesting).
  bool shardable = false;
  /// Human-readable reason when shardable is false (surfaced by the CLI's
  /// --shards refusal and by `hydra methods`).
  std::string shard_reason{};

  /// Whether queries of mode `mode` run natively (kExact always does).
  bool SupportsMode(QualityMode mode) const {
    switch (mode) {
      case QualityMode::kExact:
        return true;
      case QualityMode::kNgApprox:
        return supports_ng;
      case QualityMode::kEpsilon:
        return supports_epsilon;
      case QualityMode::kDeltaEpsilon:
        return supports_delta_epsilon;
    }
    return false;
  }
};

/// Empty when the method advertises `mode`; otherwise a human-readable
/// reason ("method supports modes: exact, epsilon") for CLI errors and
/// fallback notes.
std::string ModeFallbackReason(const MethodTraits& traits, QualityMode mode);

/// Abstract whole-matching similarity search method. Implementations: the
/// ten methods of the paper (Table 1) behind one contract.
///
/// Lifecycle (all NVI, state-checked once in the base class):
///
///     unbuilt --Build(data)--> built --Save(dir)--> built (+ index file)
///     unbuilt --Open(dir, data)--> built
///
/// Build constructs the index from scratch; Save persists a built index
/// into a versioned, checksummed container (io::IndexWriter); Open
/// rehydrates a persisted index against the same dataset and answers
/// every QuerySpec mode bit-identically to the freshly built index.
/// Save requires a built method and Open an unbuilt one (never
/// double-open) — violating either CHECK-aborts, because lifecycle misuse
/// is a programmer error; everything a *file* can get wrong (corruption,
/// version or fingerprint mismatch) comes back as a util::Status instead.
///
/// The single query entry point is Execute(query, QuerySpec): it
/// validates the spec once, resolves the requested quality mode against
/// traits() (an unsupported mode falls back to the strongest supported
/// guarantee and the fallback is recorded in the result — never silent),
/// derives a KnnPlan, and dispatches to the protected Do* hooks.
///
/// Lifetime: the Dataset passed to Build / Open must outlive the method;
/// methods keep a pointer to it as the simulated raw data file.
class SearchMethod {
 public:
  virtual ~SearchMethod() = default;

  /// Human-readable method name ("ADS+", "DSTree", ...).
  virtual std::string name() const = 0;

  /// Capabilities of this method; see MethodTraits. The default is the
  /// conservative "exact-only, no persistence, no shards".
  virtual MethodTraits traits() const {
    return {.persistence_reason =
                "method implements no DoSave/DoOpen hooks",
            .shard_reason =
                "method has not been audited for sharded execution"};
  }

  /// Builds the index / pre-organizes the data. For sequential scans this
  /// is a no-op that records the dataset pointer. Never concurrent-safe;
  /// must complete before any query. CHECK-aborts on an already
  /// built/opened method — build into a fresh instance instead.
  BuildStats Build(const Dataset& data);

  /// Persists the built index under `dir` (creating the directory) as
  /// `dir`/index.hydra. Requires a built method (CHECK-aborts otherwise).
  /// Returns the serialized file size in bytes, or an error when the
  /// method's traits() do not advertise persistence or the file cannot be
  /// written. Const: saving never mutates the index, so an adaptive
  /// method (ADS+) may be saved at any point of its life and the opened
  /// copy resumes from exactly that state.
  util::Result<int64_t> Save(const std::string& dir) const;

  /// Rehydrates the index persisted under `dir`, replacing Build. The
  /// method must be unbuilt (CHECK-aborts on double-open or open after
  /// build); `data` must be the exact collection the index was built over
  /// (validated against the stored dataset fingerprint). On success the
  /// method is built and the returned BuildStats carries the measured
  /// load_seconds (cpu_seconds stays 0: nothing was built) plus the index
  /// file bytes read. Every file-level problem — missing or truncated
  /// file, checksum mismatch, foreign method, version or fingerprint
  /// mismatch — returns an error Status; user input never CHECK-aborts.
  util::Result<BuildStats> Open(const std::string& dir, const Dataset& data);

  /// True once Build or Open succeeded.
  bool built() const { return built_; }

  /// Answers one query as described by `spec` (see QuerySpec). Validates
  /// the spec (CHECK-aborts on programmer errors: k == 0, negative
  /// radius/epsilon, delta outside (0,1], approximate or budgeted range
  /// queries, budgets under kNgApprox — user input must be validated
  /// before building a spec), resolves the quality mode against traits(),
  /// and dispatches. The result records the guarantee actually delivered
  /// and whether a budget fired. Safe to call from multiple threads on a
  /// built index. Non-const because adaptive methods (ADS+) refine their
  /// structure during query answering, under their own lock.
  QueryResult Execute(SeriesView query, const QuerySpec& spec);

  /// Index footprint; default is an empty footprint (sequential scans).
  virtual Footprint footprint() const { return {}; }

  /// Mean tightness of the lower bound over all leaves for `query`
  /// (Section 4.2). NaN when the method has no summarized leaves.
  virtual double MeanTlb(SeriesView /*query*/) const {
    return std::numeric_limits<double>::quiet_NaN();
  }

 protected:
  /// Build hook: constructs the index. Called exactly once, before any
  /// query, on an unbuilt method (the public Build enforces both).
  virtual BuildStats DoBuild(const Dataset& data) = 0;

  /// Serialization hook: writes the method's own structure into named,
  /// individually checksummed sections of the container (the base Save
  /// wrote the header — method name and dataset fingerprint — already).
  /// Only called when traits().supports_persistence; the default
  /// CHECK-aborts so persistent methods must override it.
  virtual void DoSave(io::IndexWriter* writer) const;

  /// Deserialization hook: the inverse of DoSave. Must rebuild the exact
  /// structure DoSave serialized — including configuration options, which
  /// override the constructor's so an index opens correctly regardless of
  /// how this instance was configured — and attach `data` as the raw
  /// file. Returns reader->status(): a truncated or corrupt section
  /// surfaces as an error, never a crash. Only called when
  /// traits().supports_persistence, after the base Open validated magic,
  /// version, method name, and dataset fingerprint.
  virtual util::Status DoOpen(io::IndexReader* reader, const Dataset& data);

  /// k-NN driver hook. The plan carries k plus the pruning knobs derived
  /// from the spec: bound_scale (epsilon), delta (leaf-visit stopping
  /// rule, only ever < 1 for methods advertising kDeltaEpsilon), and the
  /// explicit budgets. The all-defaults plan is the exact search; honoring
  /// a default plan must be bit-identical to ignoring it. Drivers set
  /// stats.budget_exhausted when an explicit budget stopped them (never
  /// for the delta rule) and leave answer_mode_delivered alone (Execute
  /// owns it). Neighbors are sorted by increasing *squared* distance.
  virtual QueryResult DoSearchKnn(SeriesView query, const KnnPlan& plan) = 0;

  /// ng-approximate hook (Definition 7): traverse one root-to-leaf path,
  /// visiting at most one leaf, and return the best candidates found — no
  /// error guarantee. Only called when traits().supports_ng; the default
  /// CHECK-aborts so ng-capable methods must override it.
  virtual QueryResult DoSearchKnnNg(SeriesView query, size_t k);

  /// Range driver hook. The plan carries the (guaranteed non-negative)
  /// radius plus the search width (query_threads). The result holds every
  /// series within distance r, sorted by increasing squared distance.
  virtual QueryResult DoSearchRange(SeriesView query,
                                    const RangePlan& plan) = 0;

  /// Component bridges for composite methods (shard::ShardedIndex): a
  /// composite derived from SearchMethod may drive its *components'*
  /// protected hooks through these statics (C++ grants a derived class
  /// protected access only through its own type, not through a sibling's).
  /// The composite owns the contract the public NVI wrappers normally
  /// enforce: components must be built, plans validated, and specs
  /// resolved against traits before any bridge call.
  static QueryResult ComponentSearchKnn(SearchMethod* component,
                                        SeriesView query,
                                        const KnnPlan& plan) {
    return component->DoSearchKnn(query, plan);
  }
  static QueryResult ComponentSearchKnnNg(SearchMethod* component,
                                          SeriesView query, size_t k) {
    return component->DoSearchKnnNg(query, k);
  }
  static QueryResult ComponentSearchRange(SearchMethod* component,
                                          SeriesView query,
                                          const RangePlan& plan) {
    return component->DoSearchRange(query, plan);
  }
  static void ComponentSave(const SearchMethod& component,
                            io::IndexWriter* writer) {
    component.DoSave(writer);
  }
  /// Opens a component from the composite's own container (the composite
  /// already validated the container header; per-component fingerprints
  /// are the composite's manifest's job). Marks the component built on
  /// success, exactly like the public Open.
  static util::Status ComponentOpen(SearchMethod* component,
                                    io::IndexReader* reader,
                                    const Dataset& data) {
    HYDRA_CHECK_MSG(!component->built_,
                    "ComponentOpen on an already built component");
    util::Status opened = component->DoOpen(reader, data);
    if (opened.ok()) {
      component->built_ = true;
      component->built_over_ = &data;
    }
    return opened;
  }

 private:
  bool built_ = false;
  /// The collection this method was built over (Build/Open record it);
  /// Save derives the dataset fingerprint from it.
  const Dataset* built_over_ = nullptr;
};

/// Ground-truth exact k-NN by brute force (used by tests and to label query
/// difficulty). Returns neighbors sorted by increasing distance.
std::vector<Neighbor> BruteForceKnn(const Dataset& data, SeriesView query,
                                    size_t k);

/// Recall of a candidate k-NN answer against the ground truth: the
/// fraction of the true neighbors the candidate recovered. A candidate
/// counts as correct when its distance is no worse than the true k-th
/// distance, so ties at the k-th distance count whichever id the ground
/// truth kept. The denominator is min(k, truth.size()) — k larger than the
/// collection cannot push recall below 1 for a complete answer. An empty
/// truth yields 1.0 (nothing to recover); an empty result yields 0.0.
double RecallAtK(const std::vector<Neighbor>& result,
                 const std::vector<Neighbor>& truth, size_t k);

/// Actual-vs-true distance ratio of the worst returned answer (the
/// companion study's approximation error): sqrt of result.back().dist_sq
/// over the true distance at the same rank, >= 1 up to rounding. 1.0 when
/// both are zero; +inf for an empty result (nothing returned) or a zero
/// true distance under a non-zero answer. CHECK-aborts on empty truth.
double ApproximationError(const std::vector<Neighbor>& result,
                          const std::vector<Neighbor>& truth);

}  // namespace hydra::core

#endif  // HYDRA_CORE_METHOD_H_
