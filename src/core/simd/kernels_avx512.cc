// The AVX-512 kernel set (requires F + DQ): raw-series kernels process 16
// floats per step with two 512-bit FMA accumulators. Summary lower-bound
// kernels reuse the AVX2 forms — they are short, gather-bound loops where
// extra vector width buys nothing, and sharing the implementation keeps
// the order-preserving (bit-identical) guarantee in one place.
//
// Compiled with -mavx2 -mfma -mavx512f -mavx512dq -ffp-contract=off; all
// cross-TU access is via function pointers (see kernels_avx2.cc).
#include "core/simd/kernels.h"
#include "core/simd/kernels_internal.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace hydra::core::simd::internal {
namespace {

// Deterministic horizontal sum: the fixed pairwise tree
// ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)), kept in registers
// (the line kernel runs it once per 16 values).
inline double Hsum8(__m512d v) {
  // t0+t1 | t4+t5 | t2+t3 | t6+t7
  const __m256d pairs = _mm256_hadd_pd(_mm512_castpd512_pd256(v),
                                       _mm512_extractf64x4_pd(v, 1));
  const __m128d quads = _mm_add_pd(_mm256_castpd256_pd128(pairs),
                                   _mm256_extractf128_pd(pairs, 1));
  return _mm_cvtsd_f64(_mm_add_sd(quads, _mm_unpackhi_pd(quads, quads)));
}

// acc0 += (a-b)^2 over lanes 0..7, acc1 over lanes 8..15 of a 16-float
// step whose `b` half is already in a register (the line kernel's masked
// tail loads it so).
inline void Step16Loaded(const Value* a, __m512 vb, __m512d* acc0,
                         __m512d* acc1) {
  const __m512 va = _mm512_loadu_ps(a);
  const __m512d a_lo = _mm512_cvtps_pd(_mm512_castps512_ps256(va));
  const __m512d a_hi = _mm512_cvtps_pd(_mm512_extractf32x8_ps(va, 1));
  const __m512d b_lo = _mm512_cvtps_pd(_mm512_castps512_ps256(vb));
  const __m512d b_hi = _mm512_cvtps_pd(_mm512_extractf32x8_ps(vb, 1));
  const __m512d d_lo = _mm512_sub_pd(a_lo, b_lo);
  const __m512d d_hi = _mm512_sub_pd(a_hi, b_hi);
  *acc0 = _mm512_fmadd_pd(d_lo, d_lo, *acc0);
  *acc1 = _mm512_fmadd_pd(d_hi, d_hi, *acc1);
}

inline void Step16(const Value* a, const Value* b, size_t i, __m512d* acc0,
                   __m512d* acc1) {
  Step16Loaded(a + i, _mm512_loadu_ps(b + i), acc0, acc1);
}

double Avx512EuclideanSq(const Value* a, const Value* b, size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) Step16(a, b, i, &acc0, &acc1);
  double total = Hsum8(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

// A block is one Step16 (one cache line when the candidate is aligned).
// The partial last block masks its candidate load (no read past the
// series); the query is zero-padded, so masked lanes add (0 - 0)^2 = +0.
double Avx512EuclideanSqLines(const Value* q_ranked, const Value* candidate,
                              const uint32_t* lines, size_t n, double bound) {
  const size_t blocks = (n + kLineValues - 1) / kLineValues;
  const __mmask16 tail =
      static_cast<__mmask16>((1u << (n % kLineValues)) - 1u);
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  double partial = 0.0;
  for (size_t r = 0; r < blocks; ++r) {
    const size_t first = size_t{lines[r]} * kLineValues;
    const Value* q = q_ranked + r * kLineValues;
    if (first + kLineValues <= n) {
      Step16(q, candidate + first, 0, &acc0, &acc1);
    } else {
      Step16Loaded(q, _mm512_maskz_loadu_ps(tail, candidate + first), &acc0,
                   &acc1);
    }
    partial = Hsum8(_mm512_add_pd(acc0, acc1));
    if (partial > bound) return partial;
  }
  return partial;
}

}  // namespace

const KernelSet* Avx512KernelsImpl() {
  static constexpr KernelSet kAvx512 = {
      "avx512",
      /*raw_order_preserved=*/false,
      &Avx512EuclideanSq,
      &Avx512EuclideanSqLines,
      &Avx2BoxDistSq,
      &Avx2SfaLbSq,
      &Avx2EapcaNodeLbSq,
  };
  return &kAvx512;
}

}  // namespace hydra::core::simd::internal

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace hydra::core::simd::internal {

const KernelSet* Avx512KernelsImpl() { return nullptr; }

}  // namespace hydra::core::simd::internal

#endif
