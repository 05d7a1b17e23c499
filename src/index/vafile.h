// VA+file: a vector-approximation filter file over DFT coefficients with
// non-uniform bit allocation and k-means cells. Exact search is the VA-file
// two-phase algorithm: sequential bound computation over the (memory
// resident) approximation file, then a skip-sequential refinement pass over
// the raw file.
#ifndef HYDRA_INDEX_VAFILE_H_
#define HYDRA_INDEX_VAFILE_H_

#include <vector>

#include "core/method.h"
#include "transform/vaplus.h"

namespace hydra::index {

/// Options for VA+file. The paper fixes 16 coefficients; the bit budget
/// matches the SAX-based indexes' word size (16 segments x 8 bits) and is
/// spread non-uniformly across the coefficients.
struct VaFileOptions {
  size_t dims = 16;
  int total_bits = 128;
  transform::VaPlusQuantizer::Allocation allocation =
      transform::VaPlusQuantizer::Allocation::kNonUniform;
  transform::VaPlusQuantizer::CellPlacement placement =
      transform::VaPlusQuantizer::CellPlacement::kKmeans;
};

/// Exact whole-matching k-NN via the VA+file.
class VaFile : public core::SearchMethod {
 public:
  explicit VaFile(VaFileOptions options = {}) : options_(options) {}

  std::string name() const override { return "VA+file"; }
  /// The approximation file is immutable after Build and each query reads
  /// the raw file through its own cursor, so queries can run concurrently.
  /// Cell lower bounds admit the epsilon relaxation; there are no leaves,
  /// so ng and the delta rule do not apply (and the max_visited_leaves
  /// budget can never fire).
  core::MethodTraits traits() const override {
    return {.supports_epsilon = true,
            .supports_persistence = true,
            .shardable = true};
  }
  core::Footprint footprint() const override;
  double MeanTlb(core::SeriesView query) const override;

 protected:
  core::BuildStats DoBuild(const core::Dataset& data) override;
  void DoSave(io::IndexWriter* writer) const override;
  util::Status DoOpen(io::IndexReader* reader,
                      const core::Dataset& data) override;
  core::QueryResult DoSearchKnn(core::SeriesView query,
                                const core::KnnPlan& plan) override;
  core::QueryResult DoSearchRange(core::SeriesView query,
                                  const core::RangePlan& plan) override;

 private:
  VaFileOptions options_;
  const core::Dataset* data_ = nullptr;
  transform::VaPlusQuantizer quantizer_;
  std::vector<uint16_t> cells_;      // dims cells per series
  std::vector<double> tail_energy_;  // residual DFT energy per series
};

}  // namespace hydra::index

#endif  // HYDRA_INDEX_VAFILE_H_
