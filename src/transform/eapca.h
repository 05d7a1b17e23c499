// Extended Adaptive Piecewise Constant Approximation: per-segment mean and
// standard deviation over an adaptive segmentation (the DSTree summary).
#ifndef HYDRA_TRANSFORM_EAPCA_H_
#define HYDRA_TRANSFORM_EAPCA_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"

namespace hydra::transform {

/// A segmentation of [0, n): cumulative end offsets, last one == n.
struct Segmentation {
  std::vector<uint32_t> ends;

  size_t segments() const { return ends.size(); }
  uint32_t begin_of(size_t s) const { return s == 0 ? 0 : ends[s - 1]; }
  uint32_t length_of(size_t s) const { return ends[s] - begin_of(s); }

  /// Uniform segmentation with `segments` near-equal pieces of [0, n).
  static Segmentation Uniform(size_t n, size_t segments);
};

/// Mean and standard deviation of one segment.
struct SegmentStats {
  double mean = 0.0;
  double stddev = 0.0;
};

/// EAPCA summary of `x` under `seg`.
std::vector<SegmentStats> ComputeEapca(core::SeriesView x,
                                       const Segmentation& seg);

/// Min/max envelope of segment statistics across the series of a node.
struct SegmentRange {
  double min_mean = 0.0;
  double max_mean = 0.0;
  double min_std = 0.0;
  double max_std = 0.0;

  /// Extends the envelope to cover `s` (first call initializes).
  void Extend(const SegmentStats& s, bool first) {
    if (first) {
      min_mean = max_mean = s.mean;
      min_std = max_std = s.stddev;
      return;
    }
    min_mean = std::min(min_mean, s.mean);
    max_mean = std::max(max_mean, s.mean);
    min_std = std::min(min_std, s.stddev);
    max_std = std::max(max_std, s.stddev);
  }
};

/// Lower bound on ED^2 between two series from their EAPCA summaries on the
/// same segmentation: sum_s len_s * ((mu_a - mu_b)^2 + (sd_a - sd_b)^2).
double EapcaPointLbSq(std::span<const SegmentStats> a,
                      std::span<const SegmentStats> b,
                      const Segmentation& seg);

/// Lower bound on ED^2 between the query (summarized under `seg`) and any
/// series inside the node envelope.
double EapcaNodeLbSq(std::span<const SegmentStats> q,
                     std::span<const SegmentRange> node,
                     const Segmentation& seg);

}  // namespace hydra::transform

#endif  // HYDRA_TRANSFORM_EAPCA_H_
