#include "core/method.h"

#include <cmath>
#include <filesystem>

#include "core/distance.h"
#include "io/index_codec.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::core {

namespace {

/// CHECK-validates a spec once per Execute call. User input (CLI flags)
/// must be validated before a spec is built; reaching these checks is a
/// programmer error, consistent with the repo's CHECK conventions.
void CheckSpec(const QuerySpec& spec) {
  HYDRA_CHECK_MSG(spec.query_threads >= 1,
                  "query_threads must be >= 1 (1 = serial traversal)");
  if (spec.kind == QueryKind::kRange) {
    HYDRA_CHECK_MSG(spec.radius >= 0.0, "range radius must be non-negative");
    HYDRA_CHECK_MSG(spec.mode == QualityMode::kExact,
                    "range queries support only the exact mode");
    HYDRA_CHECK_MSG(!spec.has_budget(),
                    "range queries do not support execution budgets");
    return;
  }
  HYDRA_CHECK_MSG(spec.k >= 1, "k-NN queries need k >= 1");
  HYDRA_CHECK_MSG(spec.epsilon >= 0.0 && std::isfinite(spec.epsilon),
                  "epsilon must be finite and non-negative");
  HYDRA_CHECK_MSG(spec.delta > 0.0 && spec.delta <= 1.0,
                  "delta must lie in (0, 1]");
  HYDRA_CHECK_MSG(spec.max_visited_leaves >= 0 && spec.max_raw_series >= 0,
                  "budgets must be non-negative (0 = unlimited)");
  HYDRA_CHECK_MSG(spec.mode != QualityMode::kNgApprox || !spec.has_budget(),
                  "budgets do not apply to the ng mode (already the minimal "
                  "one-leaf traversal)");
}

/// The strongest supported guarantee no weaker than intended: delta-epsilon
/// falls back to epsilon (same bound, delivered with probability 1) before
/// falling back to exact; everything else falls back straight to exact.
QualityMode EffectiveMode(const MethodTraits& traits, QualityMode requested) {
  if (traits.SupportsMode(requested)) return requested;
  if (requested == QualityMode::kDeltaEpsilon && traits.supports_epsilon) {
    return QualityMode::kEpsilon;
  }
  return QualityMode::kExact;
}

}  // namespace

std::string ModeFallbackReason(const MethodTraits& traits, QualityMode mode) {
  if (traits.SupportsMode(mode)) return {};
  std::string supported = "exact";
  if (traits.supports_ng) supported += ", ng";
  if (traits.supports_epsilon) supported += ", epsilon";
  if (traits.supports_delta_epsilon) supported += ", delta-epsilon";
  return std::string("method supports modes: ") + supported;
}

QueryResult SearchMethod::DoSearchKnnNg(SeriesView /*query*/, size_t /*k*/) {
  HYDRA_CHECK_MSG(false,
                  "DoSearchKnnNg called on a method whose traits do not "
                  "advertise ng support");
  return {};
}

void SearchMethod::DoSave(io::IndexWriter* /*writer*/) const {
  HYDRA_CHECK_MSG(false,
                  "DoSave called on a method whose traits do not advertise "
                  "persistence");
}

util::Status SearchMethod::DoOpen(io::IndexReader* /*reader*/,
                                  const Dataset& /*data*/) {
  HYDRA_CHECK_MSG(false,
                  "DoOpen called on a method whose traits do not advertise "
                  "persistence");
  return util::Status::Ok();
}

BuildStats SearchMethod::Build(const Dataset& data) {
  HYDRA_CHECK_MSG(!built_,
                  "Build on an already built/opened method — construct a "
                  "fresh instance instead");
  BuildStats stats = DoBuild(data);
  built_ = true;
  built_over_ = &data;
  return stats;
}

util::Result<int64_t> SearchMethod::Save(const std::string& dir) const {
  HYDRA_CHECK_MSG(built_, "Save requires a built method (call Build first)");
  const MethodTraits method_traits = traits();
  if (!method_traits.supports_persistence) {
    return util::Status::Error(
        name() + " does not support a persisted index (" +
        (method_traits.persistence_reason.empty()
             ? "no reason recorded"
             : method_traits.persistence_reason) +
        ")");
  }
  io::IndexWriter writer(name(), io::DatasetFingerprint::Of(*built_over_));
  DoSave(&writer);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::Error("cannot create index directory " + dir +
                               ": " + ec.message());
  }
  return writer.Commit(io::IndexFilePath(dir));
}

util::Result<BuildStats> SearchMethod::Open(const std::string& dir,
                                            const Dataset& data) {
  HYDRA_CHECK_MSG(!built_,
                  "Open requires an unbuilt method (never double-open; "
                  "construct a fresh instance instead)");
  const MethodTraits method_traits = traits();
  if (!method_traits.supports_persistence) {
    return util::Status::Error(
        name() + " does not support a persisted index (" +
        (method_traits.persistence_reason.empty()
             ? "no reason recorded"
             : method_traits.persistence_reason) +
        ")");
  }
  util::WallTimer timer;
  io::IndexReader reader;
  util::Status loaded = reader.Load(io::IndexFilePath(dir));
  if (!loaded.ok()) return loaded;
  if (reader.method_name() != name()) {
    return util::Status::Error("index at " + dir + " was built by '" +
                               reader.method_name() + "', not '" + name() +
                               "'");
  }
  const io::DatasetFingerprint given = io::DatasetFingerprint::Of(data);
  if (!(reader.fingerprint() == given)) {
    return util::Status::Error(
        "dataset fingerprint mismatch for index at " + dir +
        ": index was built over " + reader.fingerprint().ToString() +
        ", given dataset has " + given.ToString());
  }
  util::Status opened = DoOpen(&reader, data);
  if (!opened.ok()) return opened;
  built_ = true;
  built_over_ = &data;
  BuildStats stats;
  stats.load_seconds = timer.Seconds();
  stats.bytes_read = reader.file_bytes();
  stats.random_reads = 1;
  return stats;
}

QueryResult SearchMethod::Execute(SeriesView query, const QuerySpec& spec) {
  CheckSpec(spec);
  HYDRA_OBS_SPAN_ARG("execute", "k", spec.k);
  if (spec.kind == QueryKind::kRange) {
    RangePlan plan;
    plan.radius = spec.radius;
    // Range answers are visit-order independent under the fixed r^2
    // bound, so any width is safe.
    plan.query_threads = spec.query_threads;
    QueryResult result = DoSearchRange(query, plan);
    result.stats.answer_mode_delivered = QualityMode::kExact;
    return result;
  }

  const MethodTraits method_traits = traits();
  // The honesty contract admits no silently inert knob: a leaf budget on
  // a method with no leaf-visit unit could never fire, so it is refused
  // here (the CLI pre-validates user input against the same trait).
  HYDRA_CHECK_MSG(spec.max_visited_leaves == 0 ||
                      method_traits.leaf_visit_budget,
                  "max_visited_leaves cannot bind on this method (no "
                  "leaf-visit unit); cap work with max_raw_series");
  const QualityMode effective = EffectiveMode(method_traits, spec.mode);
  QueryResult result;
  if (effective == QualityMode::kNgApprox) {
    result = DoSearchKnnNg(query, spec.k);
  } else {
    KnnPlan plan;
    plan.k = spec.k;
    if (effective == QualityMode::kEpsilon ||
        effective == QualityMode::kDeltaEpsilon) {
      plan.epsilon = spec.epsilon;
      plan.bound_scale =
          1.0 / ((1.0 + spec.epsilon) * (1.0 + spec.epsilon));
    }
    if (effective == QualityMode::kDeltaEpsilon) plan.delta = spec.delta;
    if (spec.max_visited_leaves > 0) plan.max_leaves = spec.max_visited_leaves;
    if (spec.max_raw_series > 0) plan.max_raw = spec.max_raw_series;
    // Intra-query parallelism is reserved for "pure exact" plans: epsilon
    // shrink, delta caps, and explicit budgets make the answer depend on
    // the visit order, so those plans keep the serial traversal and stay
    // bit-identical at any requested width.
    if (effective == QualityMode::kExact && !spec.has_budget()) {
      plan.query_threads = spec.query_threads;
    }
    result = DoSearchKnn(query, plan);
  }
  // A truncated traversal keeps no error bound: budgets downgrade the
  // delivered guarantee to "none".
  result.stats.answer_mode_delivered =
      result.stats.budget_exhausted ? QualityMode::kNgApprox : effective;
  return result;
}

std::vector<Neighbor> BruteForceKnn(const Dataset& data, SeriesView query,
                                    size_t k) {
  HYDRA_CHECK(query.size() == data.length());
  KnnHeap heap(k);
  for (size_t i = 0; i < data.size(); ++i) {
    heap.Offer(static_cast<SeriesId>(i), SquaredEuclidean(query, data[i]));
  }
  return heap.TakeSorted();
}

double RecallAtK(const std::vector<Neighbor>& result,
                 const std::vector<Neighbor>& truth, size_t k) {
  const size_t want = std::min(k, truth.size());
  if (want == 0) return 1.0;  // nothing to recover
  // Methods sum dimensions in a different order than brute force, so an
  // exactly-correct answer can sit a few ulps above the truth's k-th
  // distance — compare with a relative tolerance, or exact searches would
  // report recall < 1.
  const double kth_dist_sq = truth[want - 1].dist_sq;
  const double cutoff = kth_dist_sq + 1e-9 * (1.0 + kth_dist_sq);
  size_t hits = 0;
  for (size_t i = 0; i < result.size() && i < want; ++i) {
    if (result[i].dist_sq <= cutoff) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(want);
}

double ApproximationError(const std::vector<Neighbor>& result,
                          const std::vector<Neighbor>& truth) {
  HYDRA_CHECK_MSG(!truth.empty(),
                  "ApproximationError needs a non-empty ground truth");
  if (result.empty()) return std::numeric_limits<double>::infinity();
  // Compare the worst returned answer to the true distance at that rank
  // (the k-th when the answer is complete).
  const size_t rank = std::min(result.size(), truth.size()) - 1;
  const double got = std::sqrt(result.back().dist_sq);
  const double want = std::sqrt(truth[rank].dist_sq);
  if (want == 0.0) {
    return got == 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
  }
  return got / want;
}

}  // namespace hydra::core
