// Ablation: FFT vs naive O(n^2) DFT — why the framework computes DFT
// summaries (SFA, VA+file, MASS) with the FFT, and the Bluestein overhead
// for non-power-of-two lengths (Deep1B's 96).
//
// Usage: abl_fft [reps]
// Each kernel runs one warm-up call, then `reps` timed calls (default
// 2000); the table reports mean microseconds per call. The closing
// checksum is a 64-bit FNV-1a hash over every bit of every output (each
// FFT, packed real DFT and naive DFT result), so a change to any
// coefficient shows in it.
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "transform/dft.h"
#include "transform/fft.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hydra {
namespace {

std::vector<std::complex<double>> RandomComplex(size_t n) {
  util::Rng rng(n);
  std::vector<std::complex<double>> a(n);
  for (auto& v : a) v = {rng.Gaussian(), rng.Gaussian()};
  return a;
}

std::vector<std::complex<double>> NaiveDft(
    const std::vector<std::complex<double>>& input) {
  const size_t n = input.size();
  std::vector<std::complex<double>> out(n);
  for (size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    for (size_t j = 0; j < n; ++j) {
      const double angle =
          -2.0 * M_PI * static_cast<double>(j * k) / static_cast<double>(n);
      acc += input[j] * std::complex<double>(std::cos(angle),
                                             std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

/// Folds every byte of `values` into the FNV-1a hash `*hash`.
template <typename T>
void HashBits(const std::vector<T>& values, uint64_t* hash) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size() * sizeof(T); ++i) {
    *hash = (*hash ^ bytes[i]) * 0x100000001b3ULL;
  }
}

/// Mean microseconds per call of `fn` (which returns a value folded into
/// `*sink` so the work cannot be optimized away).
template <typename Fn>
double MicrosPerCall(size_t reps, double* sink, Fn fn) {
  *sink += fn();  // warm-up
  util::WallTimer timer;
  for (size_t r = 0; r < reps; ++r) *sink += fn();
  return timer.Seconds() * 1e6 / static_cast<double>(reps);
}

int Run(int argc, char** argv) {
  const size_t reps = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;
  HYDRA_CHECK_MSG(reps > 0, "reps must be positive");
  std::printf("FFT vs naive DFT, %zu reps per cell (us per call)\n\n", reps);
  std::printf("%6s %10s %12s %10s %16s\n", "n", "fft", "naive_dft",
              "speedup", "packed_dft_16");
  double sink = 0.0;
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const size_t n : {96, 128, 256, 1024, 4096}) {
    const auto input = RandomComplex(n);
    const double fft = MicrosPerCall(reps, &sink, [&] {
      auto a = input;
      transform::Fft(&a, false);
      return a[0].real();
    });
    util::Rng rng(n);
    std::vector<float> x(n);
    for (auto& v : x) v = static_cast<float>(rng.Gaussian());
    const double packed = MicrosPerCall(reps, &sink, [&] {
      return transform::PackedRealDft(x, 16, true)[0];
    });
    auto transformed = input;
    transform::Fft(&transformed, false);
    HashBits(transformed, &hash);
    HashBits(transform::PackedRealDft(x, 16, true), &hash);
    // The quadratic DFT is only timed where it finishes in reasonable time.
    if (n <= 256) {
      const double naive = MicrosPerCall(
          reps, &sink, [&] { return NaiveDft(input)[0].real(); });
      HashBits(NaiveDft(input), &hash);
      std::printf("%6zu %10.3f %12.3f %9.1fx %16.3f\n", n, fft, naive,
                  naive / fft, packed);
    } else {
      std::printf("%6zu %10.3f %12s %10s %16.3f\n", n, fft, "-", "-", packed);
    }
  }
  // A volatile store keeps the timed calls from being elided.
  volatile double keep = sink;
  (void)keep;
  std::printf("\n(checksum %016llx)\n",
              static_cast<unsigned long long>(hash));
  return 0;
}

}  // namespace
}  // namespace hydra

int main(int argc, char** argv) { return hydra::Run(argc, argv); }
