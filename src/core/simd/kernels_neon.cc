// The NEON (AArch64 Advanced SIMD) kernel set. Raw-series kernels process
// 8 floats per step (widened to double across four 2-lane accumulators via
// vcvt_f64_f32 / vcvt_high_f64_f32, fused with vfmaq_f64) and are
// therefore NOT order-preserving.
//
// NEON has no gather instruction, so every summary (table-walking)
// lower-bound kernel aliases the scalar reference — which also keeps them
// order-preserving, the pruning-soundness anchor. The line kernel aliases
// the portable form: CI has no ARM runner to verify a NEON body.
//
// AArch64 makes Advanced SIMD baseline, so this TU needs no target flags —
// only -ffp-contract=off like every kernel TU, so the scalar tail loops
// cannot be contracted differently from the reference. On non-AArch64
// targets the TU compiles to a null provider and dispatch never offers it.
#include "core/simd/kernels.h"
#include "core/simd/kernels_internal.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace hydra::core::simd::internal {
namespace {

// Deterministic horizontal sum of the four accumulators: fixed pairwise
// tree over the 8 double lanes.
inline double Hsum8(float64x2_t acc0, float64x2_t acc1, float64x2_t acc2,
                    float64x2_t acc3) {
  const float64x2_t s01 = vaddq_f64(acc0, acc1);
  const float64x2_t s23 = vaddq_f64(acc2, acc3);
  return (vgetq_lane_f64(s01, 0) + vgetq_lane_f64(s01, 1)) +
         (vgetq_lane_f64(s23, 0) + vgetq_lane_f64(s23, 1));
}

// acc0..acc3 += (a-b)^2 over the 8-float step at `i`, two floats per
// accumulator, widened to double before the subtraction like every
// non-scalar set (the float difference would lose the guard bits).
inline void Step8(const Value* a, const Value* b, size_t i,
                  float64x2_t* acc0, float64x2_t* acc1, float64x2_t* acc2,
                  float64x2_t* acc3) {
  const float32x4_t va_lo = vld1q_f32(a + i);
  const float32x4_t vb_lo = vld1q_f32(b + i);
  const float32x4_t va_hi = vld1q_f32(a + i + 4);
  const float32x4_t vb_hi = vld1q_f32(b + i + 4);
  const float64x2_t d0 =
      vsubq_f64(vcvt_f64_f32(vget_low_f32(va_lo)),
                vcvt_f64_f32(vget_low_f32(vb_lo)));
  const float64x2_t d1 =
      vsubq_f64(vcvt_high_f64_f32(va_lo), vcvt_high_f64_f32(vb_lo));
  const float64x2_t d2 =
      vsubq_f64(vcvt_f64_f32(vget_low_f32(va_hi)),
                vcvt_f64_f32(vget_low_f32(vb_hi)));
  const float64x2_t d3 =
      vsubq_f64(vcvt_high_f64_f32(va_hi), vcvt_high_f64_f32(vb_hi));
  *acc0 = vfmaq_f64(*acc0, d0, d0);
  *acc1 = vfmaq_f64(*acc1, d1, d1);
  *acc2 = vfmaq_f64(*acc2, d2, d2);
  *acc3 = vfmaq_f64(*acc3, d3, d3);
}

double NeonEuclideanSq(const Value* a, const Value* b, size_t n) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) Step8(a, b, i, &acc0, &acc1, &acc2, &acc3);
  double total = Hsum8(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

}  // namespace

const KernelSet* NeonKernelsImpl() {
  static constexpr KernelSet kNeon = {
      "neon",
      /*raw_order_preserved=*/false,
      &NeonEuclideanSq,
      &PortableEuclideanSqLines,
      &ScalarBoxDistSq,
      &ScalarSfaLbSq,
      &ScalarEapcaNodeLbSq,
  };
  return &kNeon;
}

}  // namespace hydra::core::simd::internal

#else  // !__aarch64__

namespace hydra::core::simd::internal {

const KernelSet* NeonKernelsImpl() { return nullptr; }

}  // namespace hydra::core::simd::internal

#endif
