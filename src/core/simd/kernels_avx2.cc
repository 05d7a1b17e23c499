// The AVX2+FMA kernel set. Raw-series kernels process 8 floats per step
// (converted to double in two 4-lane halves, two FMA accumulators) and are
// therefore NOT order-preserving; summary lower-bound kernels compute each
// term vectorized but reduce sequentially in index order, so they are
// bit-identical to the scalar reference (the pruning-soundness anchor).
//
// This TU is compiled with -mavx2 -mfma -ffp-contract=off; nothing here
// may be inlined elsewhere (all cross-TU access is via function pointers),
// so the binary stays runnable on non-AVX2 CPUs as long as dispatch never
// selects this set. Without those flags (non-x86 target) the TU compiles
// to a null provider.
#include "core/simd/kernels.h"
#include "core/simd/kernels_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cstring>

namespace hydra::core::simd::internal {
namespace {

// Deterministic horizontal sum: the fixed pairwise tree
// (t0 + t1) + (t2 + t3), kept in registers (the line kernel runs it once
// per 16 values).
inline double Hsum4(__m256d v) {
  const __m256d pairs = _mm256_hadd_pd(v, v);  // t0+t1 | t2+t3 per half
  return _mm_cvtsd_f64(_mm_add_sd(_mm256_castpd256_pd128(pairs),
                                  _mm256_extractf128_pd(pairs, 1)));
}

// acc0 += (a-b)^2 over lanes 0..3, acc1 over lanes 4..7 of an 8-float
// step whose `b` half is already in a register (the line kernel's masked
// tail loads it so).
inline void Step8Loaded(const Value* a, __m256 vb, __m256d* acc0,
                        __m256d* acc1) {
  const __m256 va = _mm256_loadu_ps(a);
  const __m256d a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
  const __m256d a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
  const __m256d b_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(vb));
  const __m256d b_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1));
  const __m256d d_lo = _mm256_sub_pd(a_lo, b_lo);
  const __m256d d_hi = _mm256_sub_pd(a_hi, b_hi);
  *acc0 = _mm256_fmadd_pd(d_lo, d_lo, *acc0);
  *acc1 = _mm256_fmadd_pd(d_hi, d_hi, *acc1);
}

inline void Step8(const Value* a, const Value* b, size_t i, __m256d* acc0,
                  __m256d* acc1) {
  Step8Loaded(a + i, _mm256_loadu_ps(b + i), acc0, acc1);
}

double Avx2EuclideanSq(const Value* a, const Value* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) Step8(a, b, i, &acc0, &acc1);
  double total = Hsum4(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

// A block is two Step8s. The partial last block masks its candidate loads
// (no read past the series); the query is zero-padded, so masked lanes add
// (0 - 0)^2 = +0.
double Avx2EuclideanSqLines(const Value* q_ranked, const Value* candidate,
                            const uint32_t* lines, size_t n, double bound) {
  const size_t blocks = (n + kLineValues - 1) / kLineValues;
  const int tail = static_cast<int>(n % kLineValues);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i mask_lo = _mm256_cmpgt_epi32(_mm256_set1_epi32(tail), lane);
  const __m256i mask_hi =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(tail - 8), lane);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  double partial = 0.0;
  for (size_t r = 0; r < blocks; ++r) {
    const size_t first = size_t{lines[r]} * kLineValues;
    const Value* q = q_ranked + r * kLineValues;
    const Value* c = candidate + first;
    if (first + kLineValues <= n) {
      Step8(q, c, 0, &acc0, &acc1);
      Step8(q, c, 8, &acc0, &acc1);
    } else {
      Step8Loaded(q, _mm256_maskload_ps(c, mask_lo), &acc0, &acc1);
      Step8Loaded(q + 8, _mm256_maskload_ps(c + 8, mask_hi), &acc0, &acc1);
    }
    partial = Hsum4(_mm256_add_pd(acc0, acc1));
    if (partial > bound) return partial;
  }
  return partial;
}

// Branchless interval distance, bit-identical to the scalar branches for
// finite query values and lo <= hi (including infinite edges): the max
// against +0.0 comes last so in-interval lanes yield exactly +0.0.
inline __m256d IntervalDist(__m256d q, __m256d lo, __m256d hi) {
  const __m256d below = _mm256_sub_pd(lo, q);
  const __m256d above = _mm256_sub_pd(q, hi);
  return _mm256_max_pd(_mm256_max_pd(below, above), _mm256_setzero_pd());
}

// Sequentially folds the 4 lanes of `term` into `acc` in index order —
// the step that keeps every summary kernel order-preserving.
inline void FoldOrdered(__m256d term, double* acc) {
  alignas(32) double t[4];
  _mm256_store_pd(t, term);
  *acc += t[0];
  *acc += t[1];
  *acc += t[2];
  *acc += t[3];
}

// Widens 4 consecutive uint8 values to an epi32 vector.
inline __m128i Load4U8(const uint8_t* p) {
  uint32_t raw;
  std::memcpy(&raw, p, sizeof(raw));
  return _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(raw)));
}

}  // namespace

double Avx2BoxDistSq(const double* q, const double* lo, const double* hi,
                     size_t n) {
  double acc = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = IntervalDist(_mm256_loadu_pd(q + i),
                                   _mm256_loadu_pd(lo + i),
                                   _mm256_loadu_pd(hi + i));
    FoldOrdered(_mm256_mul_pd(d, d), &acc);
  }
  for (; i < n; ++i) {
    double d = 0.0;
    if (q[i] < lo[i]) {
      d = lo[i] - q[i];
    } else if (q[i] > hi[i]) {
      d = q[i] - hi[i];
    }
    acc += d * d;
  }
  return acc;
}

double Avx2SfaLbSq(const double* q_dft, const uint8_t* word, size_t dims,
                   const double* edges, size_t stride) {
  double acc = 0.0;
  size_t d = 0;
  const __m128i row_step = _mm_mullo_epi32(_mm_set_epi32(3, 2, 1, 0),
                                           _mm_set1_epi32(static_cast<int>(stride)));
  for (; d + 4 <= dims; d += 4) {
    const __m128i rows =
        _mm_add_epi32(row_step, _mm_set1_epi32(static_cast<int>(d * stride)));
    const __m128i idx = _mm_add_epi32(rows, Load4U8(word + d));
    const __m256d lo = _mm256_i32gather_pd(edges, idx, 8);
    const __m256d hi = _mm256_i32gather_pd(edges + 1, idx, 8);
    const __m256d dist = IntervalDist(_mm256_loadu_pd(q_dft + d), lo, hi);
    FoldOrdered(_mm256_mul_pd(dist, dist), &acc);
  }
  for (; d < dims; ++d) {
    const double* row = edges + d * stride;
    const double lo = row[word[d]];
    const double hi = row[word[d] + 1];
    double dist = 0.0;
    if (q_dft[d] < lo) {
      dist = lo - q_dft[d];
    } else if (q_dft[d] > hi) {
      dist = q_dft[d] - hi;
    }
    acc += dist * dist;
  }
  return acc;
}

double Avx2EapcaNodeLbSq(const double* q_stats, const double* env,
                         const uint32_t* ends, size_t segments) {
  double acc = 0.0;
  size_t s = 0;
  const __m128i pair_step = _mm_set_epi32(6, 4, 2, 0);
  const __m128i quad_step = _mm_set_epi32(12, 8, 4, 0);
  for (; s + 4 <= segments; s += 4) {
    alignas(32) double len[4];
    uint32_t begin = s == 0 ? 0 : ends[s - 1];
    for (size_t j = 0; j < 4; ++j) {
      len[j] = static_cast<double>(ends[s + j] - begin);
      begin = ends[s + j];
    }
    const __m128i idx2 =
        _mm_add_epi32(pair_step, _mm_set1_epi32(static_cast<int>(2 * s)));
    const __m128i idx4 =
        _mm_add_epi32(quad_step, _mm_set1_epi32(static_cast<int>(4 * s)));
    const __m256d q_mean = _mm256_i32gather_pd(q_stats, idx2, 8);
    const __m256d q_std = _mm256_i32gather_pd(q_stats + 1, idx2, 8);
    const __m256d min_mean = _mm256_i32gather_pd(env, idx4, 8);
    const __m256d max_mean = _mm256_i32gather_pd(env + 1, idx4, 8);
    const __m256d min_std = _mm256_i32gather_pd(env + 2, idx4, 8);
    const __m256d max_std = _mm256_i32gather_pd(env + 3, idx4, 8);
    const __m256d dm = IntervalDist(q_mean, min_mean, max_mean);
    const __m256d ds = IntervalDist(q_std, min_std, max_std);
    const __m256d term = _mm256_mul_pd(
        _mm256_load_pd(len),
        _mm256_add_pd(_mm256_mul_pd(dm, dm), _mm256_mul_pd(ds, ds)));
    FoldOrdered(term, &acc);
  }
  uint32_t begin = s == 0 ? 0 : ends[s - 1];
  for (; s < segments; ++s) {
    const double q_mean = q_stats[2 * s];
    const double q_std = q_stats[2 * s + 1];
    double dm = 0.0;
    if (q_mean < env[4 * s]) {
      dm = env[4 * s] - q_mean;
    } else if (q_mean > env[4 * s + 1]) {
      dm = q_mean - env[4 * s + 1];
    }
    double ds = 0.0;
    if (q_std < env[4 * s + 2]) {
      ds = env[4 * s + 2] - q_std;
    } else if (q_std > env[4 * s + 3]) {
      ds = q_std - env[4 * s + 3];
    }
    acc += static_cast<double>(ends[s] - begin) * (dm * dm + ds * ds);
    begin = ends[s];
  }
  return acc;
}

const KernelSet* Avx2KernelsImpl() {
  static constexpr KernelSet kAvx2 = {
      "avx2",
      /*raw_order_preserved=*/false,
      &Avx2EuclideanSq,
      &Avx2EuclideanSqLines,
      &Avx2BoxDistSq,
      &Avx2SfaLbSq,
      &Avx2EapcaNodeLbSq,
  };
  return &kAvx2;
}

}  // namespace hydra::core::simd::internal

#else  // !(__AVX2__ && __FMA__)

namespace hydra::core::simd::internal {

const KernelSet* Avx2KernelsImpl() { return nullptr; }

}  // namespace hydra::core::simd::internal

#endif
