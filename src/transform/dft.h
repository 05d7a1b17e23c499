// Orthonormal packed real DFT summaries: the reduced representation used by
// SFA, VA+file (the paper's KLT->DFT substitution), and MASS.
#ifndef HYDRA_TRANSFORM_DFT_H_
#define HYDRA_TRANSFORM_DFT_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/types.h"

namespace hydra::transform {

/// Computes the orthonormal packed real DFT of `x`.
///
/// The unitary DFT of a real series of length n can be packed into n real
/// values [X0, sqrt(2)Re X1, sqrt(2)Im X1, ..., X_{n/2}] that form an
/// orthonormal basis: Euclidean distances are preserved exactly, and
/// truncation to the first `num_coeffs` values (the lowest frequencies)
/// yields a lower-bounding distance. With `skip_dc` the DC coefficient is
/// dropped (it is identically 0 for z-normalized series).
///
/// Returns min(num_coeffs, available) packed coefficients.
std::vector<double> PackedRealDft(core::SeriesView x, size_t num_coeffs,
                                  bool skip_dc);

/// The same transform written into `out`: its first out.size() packed
/// coefficients, bit for bit those of the form above. out.size() must not
/// exceed MaxPackedCoeffs(x.size(), skip_dc). Allocates nothing once the
/// calling thread has transformed a series of this length.
void PackedRealDft(core::SeriesView x, bool skip_dc, std::span<double> out);

/// Number of packed coefficients available for length-n series.
size_t MaxPackedCoeffs(size_t n, bool skip_dc);

}  // namespace hydra::transform

#endif  // HYDRA_TRANSFORM_DFT_H_
