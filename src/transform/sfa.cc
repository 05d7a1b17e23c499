#include "transform/sfa.h"

#include <algorithm>
#include <limits>

#include "core/simd/kernels.h"
#include "util/check.h"

namespace hydra::transform {

SfaQuantizer SfaQuantizer::Train(
    const std::vector<std::vector<double>>& sample_dfts, int alphabet,
    Binning binning) {
  HYDRA_CHECK(alphabet >= 2 && alphabet <= 256);
  HYDRA_CHECK(!sample_dfts.empty());
  const size_t dims = sample_dfts.front().size();

  SfaQuantizer q;
  q.alphabet_ = alphabet;
  q.bins_.resize(dims);
  std::vector<double> column(sample_dfts.size());
  for (size_t d = 0; d < dims; ++d) {
    for (size_t i = 0; i < sample_dfts.size(); ++i) {
      HYDRA_DCHECK(sample_dfts[i].size() == dims);
      column[i] = sample_dfts[i][d];
    }
    std::sort(column.begin(), column.end());
    std::vector<double>& bins = q.bins_[d];
    bins.resize(alphabet - 1);
    if (binning == Binning::kEquiDepth) {
      for (int b = 1; b < alphabet; ++b) {
        const size_t idx = std::min(
            column.size() - 1, b * column.size() / static_cast<size_t>(alphabet));
        bins[b - 1] = column[idx];
      }
    } else {
      const double lo = column.front();
      const double hi = column.back();
      for (int b = 1; b < alphabet; ++b) {
        bins[b - 1] = lo + (hi - lo) * b / alphabet;
      }
    }
  }
  q.BuildEdgeTable();
  return q;
}

SfaQuantizer SfaQuantizer::FromBreakpoints(
    std::vector<std::vector<double>> bins, int alphabet) {
  HYDRA_CHECK(alphabet >= 2 && alphabet <= 256);
  for (const auto& b : bins) {
    HYDRA_CHECK_MSG(b.size() == static_cast<size_t>(alphabet) - 1,
                    "every dimension needs alphabet-1 breakpoints");
  }
  SfaQuantizer q;
  q.alphabet_ = alphabet;
  q.bins_ = std::move(bins);
  q.BuildEdgeTable();
  return q;
}

void SfaQuantizer::BuildEdgeTable() {
  const size_t stride = FlatStride();
  const double inf = std::numeric_limits<double>::infinity();
  flat_edges_.resize(bins_.size() * stride);
  for (size_t d = 0; d < bins_.size(); ++d) {
    double* row = flat_edges_.data() + d * stride;
    row[0] = -inf;
    for (size_t b = 0; b < bins_[d].size(); ++b) row[b + 1] = bins_[d][b];
    row[stride - 1] = inf;
  }
}

std::vector<uint8_t> SfaQuantizer::Quantize(std::span<const double> dft) const {
  HYDRA_DCHECK(dft.size() == bins_.size());
  std::vector<uint8_t> word(dft.size());
  for (size_t d = 0; d < dft.size(); ++d) {
    const auto& bins = bins_[d];
    word[d] = static_cast<uint8_t>(
        std::upper_bound(bins.begin(), bins.end(), dft[d]) - bins.begin());
  }
  return word;
}

double SfaQuantizer::LowerBoundSq(std::span<const double> q_dft,
                                  std::span<const uint8_t> word) const {
  HYDRA_DCHECK(q_dft.size() == word.size());
  HYDRA_DCHECK(q_dft.size() == bins_.size());
  return core::simd::ActiveKernels().sfa_lb_sq(
      q_dft.data(), word.data(), q_dft.size(), flat_edges_.data(),
      FlatStride());
}

size_t SfaQuantizer::MemoryBytes() const {
  size_t bytes = flat_edges_.size() * sizeof(double);
  for (const auto& bins : bins_) bytes += bins.size() * sizeof(double);
  return bytes;
}

}  // namespace hydra::transform
