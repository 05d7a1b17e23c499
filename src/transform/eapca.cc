#include "transform/eapca.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "core/simd/kernels.h"
#include "util/check.h"

namespace hydra::transform {

Segmentation Segmentation::Uniform(size_t n, size_t segments) {
  HYDRA_CHECK(segments >= 1 && segments <= n);
  Segmentation seg;
  seg.ends.resize(segments);
  for (size_t s = 0; s < segments; ++s) {
    seg.ends[s] = static_cast<uint32_t>((s + 1) * n / segments);
  }
  return seg;
}

std::vector<SegmentStats> ComputeEapca(core::SeriesView x,
                                       const Segmentation& seg) {
  HYDRA_DCHECK(!seg.ends.empty() && seg.ends.back() == x.size());
  std::vector<SegmentStats> out(seg.segments());
  for (size_t s = 0; s < seg.segments(); ++s) {
    const uint32_t b = seg.begin_of(s);
    const uint32_t e = seg.ends[s];
    const double len = static_cast<double>(e - b);
    double sum = 0.0;
    double sum_sq = 0.0;
    for (uint32_t i = b; i < e; ++i) {
      sum += x[i];
      sum_sq += static_cast<double>(x[i]) * x[i];
    }
    const double mean = sum / len;
    const double var = std::max(0.0, sum_sq / len - mean * mean);
    out[s] = {mean, std::sqrt(var)};
  }
  return out;
}

double EapcaPointLbSq(std::span<const SegmentStats> a,
                      std::span<const SegmentStats> b,
                      const Segmentation& seg) {
  HYDRA_DCHECK(a.size() == b.size() && a.size() == seg.segments());
  double acc = 0.0;
  for (size_t s = 0; s < a.size(); ++s) {
    const double dm = a[s].mean - b[s].mean;
    const double ds = a[s].stddev - b[s].stddev;
    acc += static_cast<double>(seg.length_of(s)) * (dm * dm + ds * ds);
  }
  return acc;
}

// The kernels view SegmentStats/SegmentRange arrays as packed double
// pairs/quads; pin the layout those strides assume.
static_assert(sizeof(SegmentStats) == 2 * sizeof(double));
static_assert(sizeof(SegmentRange) == 4 * sizeof(double));
static_assert(std::is_standard_layout_v<SegmentStats>);
static_assert(std::is_standard_layout_v<SegmentRange>);

double EapcaNodeLbSq(std::span<const SegmentStats> q,
                     std::span<const SegmentRange> node,
                     const Segmentation& seg) {
  HYDRA_DCHECK(q.size() == node.size() && q.size() == seg.segments());
  return core::simd::ActiveKernels().eapca_node_lb_sq(
      reinterpret_cast<const double*>(q.data()),
      reinterpret_cast<const double*>(node.data()), seg.ends.data(),
      seg.segments());
}

}  // namespace hydra::transform
