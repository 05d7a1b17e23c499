// Stepwise: multi-step filter-and-refine over DHWT coefficients stored
// level-by-level ("vertically"), using lower and upper bounding distances
// (Kashyap & Karras; Section 3.2 of the paper).
#ifndef HYDRA_SCAN_STEPWISE_H_
#define HYDRA_SCAN_STEPWISE_H_

#include <vector>

#include "core/method.h"
#include "io/counted_storage.h"

namespace hydra::scan {

/// Multi-step exact whole-matching search.
///
/// Build stores, for every series, the orthonormal Haar coefficients in
/// level-major files (all series' level-0 coefficients, then level-1, ...)
/// and keeps per-level residual energies memory-resident (the paper's
/// "pre-computed sums"). A query filters candidates one level at a time:
/// the running partial distance is a lower bound, and the Cauchy-Schwarz
/// residual term gives an upper bound that tightens the best-so-far.
/// Survivors of the coefficient levels are refined against the raw file.
class Stepwise : public core::SearchMethod {
 public:
  /// `refine_from_level`: number of finest levels answered from the raw
  /// file instead of coefficient files (1 keeps the paper's final
  /// raw-refinement step).
  explicit Stepwise(int refine_levels = 1) : refine_levels_(refine_levels) {}

  std::string name() const override { return "Stepwise"; }
  /// Coefficient files are immutable after Build and every query uses its
  /// own cursors, so queries can run concurrently. Exact-only: the
  /// coefficient-level filter has no epsilon relaxation here (approximate
  /// modes fall back to exact, reported); the max_raw_series budget
  /// truncates the final raw-refinement pass.
  core::MethodTraits traits() const override {
    return {.concurrent_queries = true,
            .serial_reason = "",
            .persistence_reason =
                "sequential scan: the Haar coefficient files are a "
                "deterministic one-pass transform, cheaper to redo than "
                "to persist",
            .shard_reason =
                "sequential scan: no index partition to build per shard — "
                "the batch engine's --threads already parallelizes it"};
  }

 protected:
  core::BuildStats DoBuild(const core::Dataset& data) override;
  core::QueryResult DoSearchKnn(core::SeriesView query,
                                const core::KnnPlan& plan) override;
  core::QueryResult DoSearchRange(core::SeriesView query,
                                  const core::RangePlan& plan) override;

 private:
  const core::Dataset* data_ = nullptr;
  int refine_levels_;
  size_t padded_ = 0;                   // padded transform length
  std::vector<size_t> level_bounds_;    // coarse-to-fine prefix boundaries
  size_t filter_levels_ = 0;            // levels used for filtering
  // coeffs_[level] holds all series' coefficients of that level,
  // series-major within the level (the "vertical" layout).
  std::vector<std::vector<double>> coeffs_;
  // residual_[level][series]: energy of coefficients at levels > `level`.
  std::vector<std::vector<double>> residual_;
};

}  // namespace hydra::scan

#endif  // HYDRA_SCAN_STEPWISE_H_
