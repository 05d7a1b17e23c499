#include "transform/fft.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace hydra::transform {
namespace {

using Complex = std::complex<double>;

// A radix-2 plan for one (size, direction): everything the transform
// computes from n alone, built once per thread.
struct Radix2Plan {
  Radix2Plan(size_t n, bool inverse) {
    // Bit-reversal permutation, as the transposed pairs (i < j).
    for (size_t i = 1, j = 0; i < n; ++i) {
      size_t bit = n >> 1;
      for (; (j & bit) != 0; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) swaps.emplace_back(i, j);
    }
    // The stage of half-length h keeps its h twiddles at [h - 1, 2h - 1).
    // They come from the w *= wlen recurrence rather than a cos/sin per
    // twiddle: fft_test pins the transform's bits to that recurrence.
    twiddles.reserve(n > 1 ? n - 1 : 0);
    for (size_t len = 2; len <= n; len <<= 1) {
      const double angle =
          (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
      const Complex wlen(std::cos(angle), std::sin(angle));
      Complex w(1.0, 0.0);
      for (size_t j = 0; j < len / 2; ++j) {
        twiddles.push_back(w);
        w *= wlen;
      }
    }
  }

  std::vector<std::pair<size_t, size_t>> swaps;
  std::vector<Complex> twiddles;
};

// Plans live in per-thread caches keyed by (size, direction): no lock,
// and each thread builds a plan once, on its first transform of that size.
template <typename Plan>
Plan& CachedPlan(
    std::unordered_map<size_t, std::unique_ptr<Plan>>* plans, size_t n,
    bool inverse) {
  std::unique_ptr<Plan>& slot = (*plans)[2 * n + (inverse ? 1 : 0)];
  if (slot == nullptr) slot = std::make_unique<Plan>(n, inverse);
  return *slot;
}

const Radix2Plan& Radix2PlanFor(size_t n, bool inverse) {
  thread_local std::unordered_map<size_t, std::unique_ptr<Radix2Plan>> plans;
  return CachedPlan(&plans, n, inverse);
}

// Iterative Cooley-Tukey radix-2 FFT of a[0, n); n must be a power of two.
// The butterfly spells out the complex product v = x * w in the order
// GCC's inline complex multiply uses, so the bits match std::complex.
void Radix2Fft(const Radix2Plan& plan, Complex* a, size_t n) {
  for (const auto& [i, j] : plan.swaps) std::swap(a[i], a[j]);
  for (size_t half = 1; half < n; half <<= 1) {
    const Complex* w = plan.twiddles.data() + (half - 1);
    for (size_t i = 0; i < n; i += 2 * half) {
      Complex* lo = a + i;
      Complex* hi = lo + half;
      for (size_t j = 0; j < half; ++j) {
        const double xr = hi[j].real();
        const double xi = hi[j].imag();
        const double wr = w[j].real();
        const double wi = w[j].imag();
        const double vr = xr * wr - xi * wi;
        const double vi = xr * wi + xi * wr;
        const double ur = lo[j].real();
        const double ui = lo[j].imag();
        lo[j] = Complex(ur + vr, ui + vi);
        hi[j] = Complex(ur - vr, ui - vi);
      }
    }
  }
}

// Bluestein's chirp-z algorithm: expresses a DFT of arbitrary size n as a
// convolution, evaluated with a radix-2 FFT of size m >= 2n-1. The plan for
// one (size, direction) holds the chirp, the FFT of its padded conjugate
// and the convolution's work buffer.
struct BluesteinPlan {
  BluesteinPlan(size_t n, bool inverse)
      : m(NextPowerOfTwo(2 * n - 1)),
        forward(Radix2PlanFor(m, /*inverse=*/false)),
        backward(Radix2PlanFor(m, /*inverse=*/true)),
        chirp(n),
        conj_chirp_freq(m, Complex(0.0, 0.0)),
        work(m) {
    const double sign = inverse ? 1.0 : -1.0;
    for (size_t k = 0; k < n; ++k) {
      // e^{sign * i * pi * k^2 / n}; reduce k^2 mod 2n to keep precision.
      const size_t k2 = (k * k) % (2 * n);
      const double angle =
          sign * M_PI * static_cast<double>(k2) / static_cast<double>(n);
      chirp[k] = Complex(std::cos(angle), std::sin(angle));
    }
    conj_chirp_freq[0] = std::conj(chirp[0]);
    for (size_t k = 1; k < n; ++k) {
      conj_chirp_freq[k] = std::conj(chirp[k]);
      conj_chirp_freq[m - k] = std::conj(chirp[k]);
    }
    Radix2Fft(forward, conj_chirp_freq.data(), m);
  }

  const size_t m;
  const Radix2Plan& forward;
  const Radix2Plan& backward;
  std::vector<Complex> chirp;
  std::vector<Complex> conj_chirp_freq;
  std::vector<Complex> work;  // the convolution's buffer, size m
};

void BluesteinFft(BluesteinPlan& plan, Complex* a, size_t n) {
  std::vector<Complex>& x = plan.work;
  for (size_t k = 0; k < n; ++k) x[k] = a[k] * plan.chirp[k];
  std::fill(x.begin() + static_cast<long>(n), x.end(), Complex(0.0, 0.0));
  Radix2Fft(plan.forward, x.data(), plan.m);
  for (size_t k = 0; k < plan.m; ++k) x[k] *= plan.conj_chirp_freq[k];
  Radix2Fft(plan.backward, x.data(), plan.m);
  const double inv_m = 1.0 / static_cast<double>(plan.m);
  for (size_t k = 0; k < n; ++k) a[k] = x[k] * inv_m * plan.chirp[k];
}

BluesteinPlan& BluesteinPlanFor(size_t n, bool inverse) {
  thread_local std::unordered_map<size_t, std::unique_ptr<BluesteinPlan>>
      plans;
  return CachedPlan(&plans, n, inverse);
}

}  // namespace

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void Fft(std::vector<std::complex<double>>* a, bool inverse) {
  HYDRA_CHECK(a != nullptr);
  const size_t n = a->size();
  if (n <= 1) return;
  if (IsPowerOfTwo(n)) {
    Radix2Fft(Radix2PlanFor(n, inverse), a->data(), n);
  } else {
    BluesteinFft(BluesteinPlanFor(n, inverse), a->data(), n);
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : *a) v *= inv_n;
  }
}

}  // namespace hydra::transform
