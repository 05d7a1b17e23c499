// UCR Suite adapted to exact whole matching: optimized sequential scan with
// squared distances, early abandoning, and reordered early abandoning
// (the paper's baseline, Section 3.2).
#ifndef HYDRA_SCAN_UCR_SCAN_H_
#define HYDRA_SCAN_UCR_SCAN_H_

#include "core/method.h"
#include "io/counted_storage.h"

namespace hydra::scan {

/// Exact whole-matching sequential scan. No index: Build only records the
/// dataset; every query reads the entire raw file sequentially.
class UcrScan : public core::SearchMethod {
 public:
  std::string name() const override { return "UCR-Suite"; }
  /// Stateless after Build (queries only read the dataset), so queries can
  /// run concurrently. Exact-only: a scan has no summaries to relax a
  /// bound against (approximate modes fall back to exact, reported); the
  /// max_raw_series budget truncates the scan.
  core::MethodTraits traits() const override {
    return {.persistence_reason =
                "sequential scan: there is no index structure to persist",
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
};

}  // namespace hydra::scan

#endif  // HYDRA_SCAN_UCR_SCAN_H_
