// MASS adapted to exact whole matching: distances via FFT dot products
// (ED^2 = |Q|^2 + |C|^2 - 2 Q.C). Deliberately CPU-heavy, as the paper
// reports for this adaptation.
#ifndef HYDRA_SCAN_MASS_SCAN_H_
#define HYDRA_SCAN_MASS_SCAN_H_

#include <complex>
#include <vector>

#include "core/method.h"
#include "io/counted_storage.h"

namespace hydra::scan {

/// Exact whole-matching scan computing each distance through the Fourier
/// domain, following the paper's MASS adaptation (Section 3.2).
class MassScan : public core::SearchMethod {
 public:
  std::string name() const override { return "MASS"; }
  /// Queries only read the dataset and the precomputed norms, so they can
  /// run concurrently. Exact-only: every distance is computed through the
  /// Fourier domain with no bound to relax (approximate modes fall back to
  /// exact, reported); the max_raw_series budget truncates the scan.
  core::MethodTraits traits() const override {
    return {.concurrent_queries = true,
            .serial_reason = "",
            .persistence_reason =
                "sequential scan: Build only precomputes per-series "
                "norms, cheaper to redo than to persist",
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
  /// The squared distance of `query` to series i through the Fourier
  /// domain, as a callable `(i, bound)` for core::ScanKnn / ScanRange
  /// (no early abandoning: `bound` is ignored). Each calling thread keeps
  /// its own FFT buffer.
  auto Distances(core::SeriesView query) const;

  const core::Dataset* data_ = nullptr;
  std::vector<double> norms_sq_;  // per-series squared L2 norm, precomputed
};

}  // namespace hydra::scan

#endif  // HYDRA_SCAN_MASS_SCAN_H_
