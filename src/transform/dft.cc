#include "transform/dft.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "transform/fft.h"
#include "util/check.h"

namespace hydra::transform {

size_t MaxPackedCoeffs(size_t n, bool skip_dc) {
  return skip_dc ? n - 1 : n;
}

std::vector<double> PackedRealDft(core::SeriesView x, size_t num_coeffs,
                                  bool skip_dc) {
  HYDRA_CHECK(x.size() >= 2);
  std::vector<double> packed(
      std::min(num_coeffs, MaxPackedCoeffs(x.size(), skip_dc)));
  PackedRealDft(x, skip_dc, packed);
  return packed;
}

void PackedRealDft(core::SeriesView x, bool skip_dc, std::span<double> out) {
  const size_t n = x.size();
  HYDRA_CHECK(n >= 2);
  HYDRA_CHECK(out.size() <= MaxPackedCoeffs(n, skip_dc));
  thread_local std::vector<std::complex<double>> freq;
  freq.resize(n);
  for (size_t i = 0; i < n; ++i) freq[i] = std::complex<double>(x[i], 0.0);
  Fft(&freq, /*inverse=*/false);

  const double unit = 1.0 / std::sqrt(static_cast<double>(n));
  const double paired = unit * std::sqrt(2.0);
  // Packed slot q (counting the DC slot even when skipped) holds X0 at 0,
  // Re Xk at 2k-1 and Im Xk at 2k. The Nyquist coefficient of an
  // even-length real series (k = n/2) is real-valued and unpaired.
  const size_t first = skip_dc ? 1 : 0;
  for (size_t p = 0; p < out.size(); ++p) {
    const size_t q = p + first;
    const size_t k = (q + 1) / 2;
    if (q == 0 || (q % 2 == 1 && 2 * k == n)) {
      out[p] = freq[k].real() * unit;
    } else if (q % 2 == 1) {
      out[p] = freq[k].real() * paired;
    } else {
      out[p] = freq[k].imag() * paired;
    }
  }
}

}  // namespace hydra::transform
