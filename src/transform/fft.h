// Fast Fourier Transform: iterative radix-2 plus Bluestein's algorithm for
// arbitrary lengths. Built from scratch — no external FFT dependency.
#ifndef HYDRA_TRANSFORM_FFT_H_
#define HYDRA_TRANSFORM_FFT_H_

#include <complex>
#include <vector>

namespace hydra::transform {

/// In-place discrete Fourier transform of `a` (any size). Forward maps
/// a_j -> sum_k a_k e^{-2*pi*i*j*k/n}; the inverse includes the 1/n factor,
/// so Fft(Fft(x), inverse=true) == x. Each thread builds its plan for a
/// (size, direction) on first use and keeps it (no lock is taken).
void Fft(std::vector<std::complex<double>>* a, bool inverse);

/// True if n is a power of two (radix-2 path; otherwise Bluestein is used).
bool IsPowerOfTwo(size_t n);

/// Smallest power of two >= n.
size_t NextPowerOfTwo(size_t n);

}  // namespace hydra::transform

#endif  // HYDRA_TRANSFORM_FFT_H_
