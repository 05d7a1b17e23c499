#include "core/distance.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "core/simd/kernels.h"
#include "util/check.h"

namespace hydra::core {

double SquaredEuclidean(SeriesView a, SeriesView b) {
  HYDRA_DCHECK(a.size() == b.size());
  return simd::ActiveKernels().euclidean_sq(a.data(), b.data(), a.size());
}

void QueryOrder::Reset(SeriesView query) {
  constexpr size_t kLine = simd::kLineValues;
  length_ = query.size();
  const size_t blocks = (length_ + kLine - 1) / kLine;
  energy_.resize(blocks);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t end = std::min((b + 1) * kLine, length_);
    double energy = 0.0;
    for (size_t i = b * kLine; i < end; ++i) {
      const double v = query[i];
      energy += v * v;
    }
    energy_[b] = energy;
  }
  lines_.resize(blocks);
  std::iota(lines_.begin(), lines_.end(), 0u);
  std::sort(lines_.begin(), lines_.end(), [&](uint32_t a, uint32_t b) {
    return energy_[a] > energy_[b] || (energy_[a] == energy_[b] && a < b);
  });
  ranked_query_.assign(blocks * kLine, 0.0f);
  for (size_t r = 0; r < blocks; ++r) {
    const size_t first = size_t{lines_[r]} * kLine;
    std::copy_n(query.data() + first, std::min(kLine, length_ - first),
                ranked_query_.data() + r * kLine);
  }
}

QueryOrder& ScratchQueryOrder(SeriesView query) {
  thread_local QueryOrder order;
  order.Reset(query);
  return order;
}

double QueryOrder::Distance(SeriesView candidate, double bound) const {
  HYDRA_DCHECK(candidate.size() == length_);
  return simd::ActiveKernels().euclidean_sq_lines(
      ranked_query_.data(), candidate.data(), lines_.data(), length_, bound);
}

}  // namespace hydra::core
