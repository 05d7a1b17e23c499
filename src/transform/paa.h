// Piecewise Aggregate Approximation: equal-length segment means.
#ifndef HYDRA_TRANSFORM_PAA_H_
#define HYDRA_TRANSFORM_PAA_H_

#include <span>
#include <vector>

#include "core/types.h"

namespace hydra::transform {

/// PAA of `x` with `segments` equal-length segments; `x.size()` must be a
/// multiple of `segments`.
std::vector<double> Paa(core::SeriesView x, size_t segments);

/// The same PAA written to `out[0, segments)` without allocating.
void Paa(core::SeriesView x, size_t segments, double* out);

/// Lower bound on the squared Euclidean distance between the originals of
/// two PAA vectors: points_per_segment * sum((a_s - b_s)^2) <= ED^2.
double PaaLowerBoundSq(std::span<const double> a, std::span<const double> b,
                       size_t points_per_segment);

}  // namespace hydra::transform

#endif  // HYDRA_TRANSFORM_PAA_H_
