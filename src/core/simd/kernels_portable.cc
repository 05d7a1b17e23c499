// The portable kernel set: 4-wide stripe-unrolled raw-series kernels in
// plain C++ (no intrinsics), compiled with -ffp-contract=off. Exists so
// the multi-accumulator reduction shape is exercised on every platform,
// including targets where the ISA sets cannot be compiled. Summary
// lower-bound kernels alias the scalar reference — they are required to be
// order-preserving, and without intrinsics there is nothing to gain from
// restating the loop.
#include "core/simd/kernels.h"
#include "core/simd/kernels_internal.h"

namespace hydra::core::simd::internal {
namespace {

// One 4-wide stripe step: acc[j] += (a[i+j] - b[i+j])^2. Shared by the
// plain and line kernels.
inline void Stripe4(const Value* a, const Value* b, size_t i, double* acc) {
  const double d0 = static_cast<double>(a[i + 0]) - b[i + 0];
  const double d1 = static_cast<double>(a[i + 1]) - b[i + 1];
  const double d2 = static_cast<double>(a[i + 2]) - b[i + 2];
  const double d3 = static_cast<double>(a[i + 3]) - b[i + 3];
  acc[0] += d0 * d0;
  acc[1] += d1 * d1;
  acc[2] += d2 * d2;
  acc[3] += d3 * d3;
}

inline double Combine(const double* acc) {
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double PortableEuclideanSq(const Value* a, const Value* b, size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 4 <= n; i += 4) Stripe4(a, b, i, acc);
  double total = Combine(acc);
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

}  // namespace

// Each block is four stripes into the lane accumulators (a partial block
// feeds its values to lane j % 4), then a combine and the bound check.
double PortableEuclideanSqLines(const Value* q_ranked, const Value* candidate,
                                const uint32_t* lines, size_t n,
                                double bound) {
  const size_t blocks = (n + kLineValues - 1) / kLineValues;
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  double partial = 0.0;
  for (size_t r = 0; r < blocks; ++r) {
    const size_t first = size_t{lines[r]} * kLineValues;
    const Value* q = q_ranked + r * kLineValues;
    const Value* c = candidate + first;
    if (first + kLineValues <= n) {
      Stripe4(q, c, 0, acc);
      Stripe4(q, c, 4, acc);
      Stripe4(q, c, 8, acc);
      Stripe4(q, c, 12, acc);
    } else {
      for (size_t j = 0; j < n - first; ++j) {
        const double d = static_cast<double>(q[j]) - c[j];
        acc[j % 4] += d * d;
      }
    }
    partial = Combine(acc);
    if (partial > bound) return partial;
  }
  return partial;
}

const KernelSet& PortableKernelsImpl() {
  static constexpr KernelSet kPortable = {
      "portable",
      /*raw_order_preserved=*/false,
      &PortableEuclideanSq,
      &PortableEuclideanSqLines,
      &ScalarBoxDistSq,
      &ScalarSfaLbSq,
      &ScalarEapcaNodeLbSq,
  };
  return kPortable;
}

}  // namespace hydra::core::simd::internal
