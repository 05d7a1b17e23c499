#include "transform/paa.h"

#include "util/check.h"

namespace hydra::transform {

std::vector<double> Paa(core::SeriesView x, size_t segments) {
  std::vector<double> out(segments);
  Paa(x, segments, out.data());
  return out;
}

void Paa(core::SeriesView x, size_t segments, double* out) {
  HYDRA_CHECK_MSG(segments > 0 && x.size() % segments == 0,
                  "PAA requires length divisible by segment count");
  const size_t seg_len = x.size() / segments;
  for (size_t s = 0; s < segments; ++s) {
    double sum = 0.0;
    for (size_t j = 0; j < seg_len; ++j) sum += x[s * seg_len + j];
    out[s] = sum / static_cast<double>(seg_len);
  }
}

double PaaLowerBoundSq(std::span<const double> a, std::span<const double> b,
                       size_t points_per_segment) {
  HYDRA_DCHECK(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc * static_cast<double>(points_per_segment);
}

}  // namespace hydra::transform
