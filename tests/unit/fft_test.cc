#include <cmath>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "transform/dft.h"
#include "transform/fft.h"
#include "util/rng.h"

namespace hydra::transform {
namespace {

using Complex = std::complex<double>;

// The transform as it ran before plans: twiddles rebuilt by the w *= wlen
// recurrence inside every butterfly block, Bluestein's chirp recomputed on
// every call. Kept verbatim as the bit-identity reference for the planned
// transform (this TU, like fft.cc, is built with -ffp-contract=off so the
// two cannot fuse differently).
namespace reference {

// Iterative Cooley-Tukey radix-2 FFT; n must be a power of two.
void Radix2Fft(std::vector<Complex>* data, bool inverse) {
  std::vector<Complex>& a = *data;
  const size_t n = a.size();
  // Bit-reversal permutation.
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (size_t j = 0; j < len / 2; ++j) {
        const Complex u = a[i + j];
        const Complex v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

// Bluestein's chirp-z algorithm: expresses a DFT of arbitrary size n as a
// convolution, evaluated with a radix-2 FFT of size >= 2n-1.
void BluesteinFft(std::vector<Complex>* data, bool inverse) {
  std::vector<Complex>& a = *data;
  const size_t n = a.size();
  const size_t m = NextPowerOfTwo(2 * n - 1);
  const double sign = inverse ? 1.0 : -1.0;

  std::vector<Complex> chirp(n);
  for (size_t k = 0; k < n; ++k) {
    // e^{sign * i * pi * k^2 / n}; reduce k^2 mod 2n to keep precision.
    const size_t k2 = (k * k) % (2 * n);
    const double angle = sign * M_PI * static_cast<double>(k2) / static_cast<double>(n);
    chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }

  std::vector<Complex> x(m, Complex(0.0, 0.0));
  std::vector<Complex> y(m, Complex(0.0, 0.0));
  for (size_t k = 0; k < n; ++k) x[k] = a[k] * chirp[k];
  y[0] = std::conj(chirp[0]);
  for (size_t k = 1; k < n; ++k) {
    y[k] = std::conj(chirp[k]);
    y[m - k] = std::conj(chirp[k]);
  }

  Radix2Fft(&x, /*inverse=*/false);
  Radix2Fft(&y, /*inverse=*/false);
  for (size_t k = 0; k < m; ++k) x[k] *= y[k];
  Radix2Fft(&x, /*inverse=*/true);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (size_t k = 0; k < n; ++k) a[k] = x[k] * inv_m * chirp[k];
}

void Fft(std::vector<std::complex<double>>* a, bool inverse) {
  const size_t n = a->size();
  if (n <= 1) return;
  if (IsPowerOfTwo(n)) {
    Radix2Fft(a, inverse);
  } else {
    BluesteinFft(a, inverse);
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : *a) v *= inv_n;
  }
}

std::vector<double> PackedRealDft(core::SeriesView x, size_t num_coeffs,
                                  bool skip_dc) {
  const size_t n = x.size();
  std::vector<std::complex<double>> freq(n);
  for (size_t i = 0; i < n; ++i) freq[i] = std::complex<double>(x[i], 0.0);
  Fft(&freq, /*inverse=*/false);

  const double unit = 1.0 / std::sqrt(static_cast<double>(n));
  const double paired = unit * std::sqrt(2.0);
  std::vector<double> packed;
  packed.reserve(MaxPackedCoeffs(n, skip_dc));
  if (!skip_dc) packed.push_back(freq[0].real() * unit);
  const size_t half = n / 2;
  for (size_t k = 1; k < half + (n % 2 == 1 ? 1 : 0); ++k) {
    packed.push_back(freq[k].real() * paired);
    packed.push_back(freq[k].imag() * paired);
  }
  if (n % 2 == 0) {
    // The Nyquist coefficient of an even-length real series is real-valued
    // and unpaired.
    packed.push_back(freq[half].real() * unit);
  }
  if (packed.size() > num_coeffs) packed.resize(num_coeffs);
  return packed;
}

}  // namespace reference

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  // memcmp's pointers must be valid even for 0 bytes; an empty vector's
  // data() may be null.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

std::vector<Complex> RandomComplex(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> a(n);
  for (auto& v : a) v = Complex(rng.Gaussian(), rng.Gaussian());
  return a;
}

std::vector<core::Value> RandomSeries(util::Rng* rng, size_t n) {
  std::vector<core::Value> x(n);
  for (auto& v : x) v = static_cast<core::Value>(rng->Gaussian());
  return x;
}

TEST(Fft, PowerOfTwoRoundTrip) {
  util::Rng rng(1);
  std::vector<Complex> a(64);
  for (auto& v : a) v = Complex(rng.Gaussian(), rng.Gaussian());
  const auto original = a;
  Fft(&a, false);
  Fft(&a, true);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(a[i].imag(), original[i].imag(), 1e-9);
  }
}

TEST(Fft, NonPowerOfTwoRoundTrip) {
  // Bluestein path (96 = the Deep1B series length; 100, 37 are stress cases).
  for (size_t n : {96u, 100u, 37u, 3u}) {
    util::Rng rng(n);
    std::vector<Complex> a(n);
    for (auto& v : a) v = Complex(rng.Gaussian(), rng.Gaussian());
    const auto original = a;
    Fft(&a, false);
    Fft(&a, true);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(a[i].real(), original[i].real(), 1e-8) << "n=" << n;
      EXPECT_NEAR(a[i].imag(), original[i].imag(), 1e-8) << "n=" << n;
    }
  }
}

TEST(Fft, MatchesNaiveDft) {
  const size_t n = 24;
  util::Rng rng(5);
  std::vector<Complex> a(n);
  for (auto& v : a) v = Complex(rng.Gaussian(), rng.Gaussian());
  std::vector<Complex> naive(n, Complex(0, 0));
  for (size_t k = 0; k < n; ++k) {
    for (size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * M_PI * static_cast<double>(j * k) / n;
      naive[k] += a[j] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  Fft(&a, false);
  for (size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(a[k].real(), naive[k].real(), 1e-8);
    EXPECT_NEAR(a[k].imag(), naive[k].imag(), 1e-8);
  }
}

TEST(Fft, DeltaFunctionIsFlat) {
  std::vector<Complex> a(16, Complex(0, 0));
  a[0] = Complex(1, 0);
  Fft(&a, false);
  for (const auto& v : a) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(PackedRealDft, ParsevalHolds) {
  // The packed transform is orthonormal: energy is preserved exactly.
  for (size_t n : {32u, 96u, 128u, 17u}) {
    util::Rng rng(n);
    const auto x = RandomSeries(&rng, n);
    const auto packed = PackedRealDft(x, MaxPackedCoeffs(n, false), false);
    double ex = 0.0;
    for (const auto v : x) ex += static_cast<double>(v) * v;
    double ep = 0.0;
    for (const double v : packed) ep += v * v;
    EXPECT_NEAR(ex, ep, 1e-8 * std::max(1.0, ex)) << "n=" << n;
  }
}

TEST(PackedRealDft, DistancePreservedInFullSpace) {
  util::Rng rng(11);
  const size_t n = 64;
  const auto x = RandomSeries(&rng, n);
  const auto y = RandomSeries(&rng, n);
  const auto px = PackedRealDft(x, n, false);
  const auto py = PackedRealDft(y, n, false);
  double packed_dist = 0.0;
  for (size_t i = 0; i < px.size(); ++i) {
    packed_dist += (px[i] - py[i]) * (px[i] - py[i]);
  }
  EXPECT_NEAR(packed_dist, core::SquaredEuclidean(x, y), 1e-8);
}

TEST(PackedRealDft, TruncationLowerBounds) {
  util::Rng rng(12);
  const size_t n = 128;
  for (int trial = 0; trial < 50; ++trial) {
    const auto x = RandomSeries(&rng, n);
    const auto y = RandomSeries(&rng, n);
    const double exact = core::SquaredEuclidean(x, y);
    for (size_t m : {4u, 8u, 16u, 64u}) {
      const auto px = PackedRealDft(x, m, true);
      const auto py = PackedRealDft(y, m, true);
      double d = 0.0;
      for (size_t i = 0; i < px.size(); ++i) {
        d += (px[i] - py[i]) * (px[i] - py[i]);
      }
      EXPECT_LE(d, exact + 1e-7) << "m=" << m;
    }
  }
}

TEST(PackedRealDft, DcSkipZeroForNormalizedSeries) {
  util::Rng rng(13);
  std::vector<core::Value> x = RandomSeries(&rng, 32);
  // Normalize to zero mean.
  double mean = 0.0;
  for (auto v : x) mean += v;
  mean /= static_cast<double>(x.size());
  for (auto& v : x) v -= static_cast<core::Value>(mean);
  const auto with_dc = PackedRealDft(x, 4, false);
  EXPECT_NEAR(with_dc[0], 0.0, 1e-5);  // DC coefficient vanishes
}

TEST(PackedRealDft, CoefficientCount) {
  EXPECT_EQ(MaxPackedCoeffs(8, false), 8u);
  EXPECT_EQ(MaxPackedCoeffs(8, true), 7u);
  util::Rng rng(14);
  const auto x = RandomSeries(&rng, 8);
  EXPECT_EQ(PackedRealDft(x, 100, false).size(), 8u);
  EXPECT_EQ(PackedRealDft(x, 3, false).size(), 3u);
}

TEST(FftBits, PlannedRadix2MatchesReference) {
  for (size_t n = 2; n <= 4096; n <<= 1) {
    for (const bool inverse : {false, true}) {
      auto planned = RandomComplex(n, n);
      auto expected = planned;
      // Twice: the first call builds the plan, the second reuses it.
      for (int pass = 0; pass < 2; ++pass) {
        Fft(&planned, inverse);
        reference::Fft(&expected, inverse);
        EXPECT_TRUE(SameBits(planned, expected))
            << "n=" << n << " inverse=" << inverse << " pass=" << pass;
      }
    }
  }
}

TEST(FftBits, PlannedBluesteinMatchesReference) {
  for (const size_t n : {3u, 37u, 96u, 100u}) {
    for (const bool inverse : {false, true}) {
      auto planned = RandomComplex(n, n);
      auto expected = planned;
      for (int pass = 0; pass < 2; ++pass) {
        Fft(&planned, inverse);
        reference::Fft(&expected, inverse);
        EXPECT_TRUE(SameBits(planned, expected))
            << "n=" << n << " inverse=" << inverse << " pass=" << pass;
      }
    }
  }
}

TEST(FftBits, PackedRealDftFormsMatchReference) {
  for (const size_t n : {2u, 3u, 17u, 64u, 96u, 100u, 256u}) {
    util::Rng rng(n);
    const auto x = RandomSeries(&rng, n);
    for (const bool skip_dc : {false, true}) {
      const size_t max = MaxPackedCoeffs(n, skip_dc);
      for (const size_t m : {size_t{0}, size_t{1}, max / 2, max, max + 5}) {
        const auto vec = PackedRealDft(x, m, skip_dc);
        EXPECT_TRUE(SameBits(vec, reference::PackedRealDft(x, m, skip_dc)))
            << "n=" << n << " m=" << m << " skip_dc=" << skip_dc;
        std::vector<double> span(vec.size(), -1.0);
        PackedRealDft(x, skip_dc, span);
        EXPECT_TRUE(SameBits(span, vec))
            << "n=" << n << " m=" << m << " skip_dc=" << skip_dc;
      }
    }
  }
}

// Plans and scratch are per thread: four threads transforming mixed
// lengths (Bluestein 96, radix-2 128 and 256) must reproduce the serial
// bits. Under the `quick` label, so the TSan lane runs it.
TEST(FftBits, ConcurrentMixedLengthsMatchSerial) {
  const std::vector<size_t> lengths = {96, 128, 256};
  std::vector<std::vector<Complex>> inputs;
  std::vector<std::vector<core::Value>> series;
  std::vector<std::vector<Complex>> serial_fft;
  std::vector<std::vector<double>> serial_dft;
  for (size_t i = 0; i < 12; ++i) {
    const size_t n = lengths[i % lengths.size()];
    inputs.push_back(RandomComplex(n, 100 + i));
    util::Rng rng(200 + i);
    series.push_back(RandomSeries(&rng, n));
    auto freq = inputs.back();
    reference::Fft(&freq, /*inverse=*/i % 2 == 1);
    serial_fft.push_back(freq);
    serial_dft.push_back(reference::PackedRealDft(series.back(), n, true));
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (size_t j = 0; j < inputs.size(); ++j) {
          const size_t i = (j + static_cast<size_t>(t)) % inputs.size();
          auto freq = inputs[i];
          Fft(&freq, /*inverse=*/i % 2 == 1);
          std::vector<double> dft(MaxPackedCoeffs(series[i].size(), true));
          PackedRealDft(series[i], /*skip_dc=*/true, dft);
          if (!SameBits(freq, serial_fft[i])) ++mismatches[t];
          if (!SameBits(dft, serial_dft[i])) ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "t=" << t;
}

TEST(FftHelpers, PowerOfTwoPredicates) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(96));
  EXPECT_EQ(NextPowerOfTwo(96), 128u);
  EXPECT_EQ(NextPowerOfTwo(128), 128u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
}

}  // namespace
}  // namespace hydra::transform
