// The scalar kernel set: the pre-SIMD loops, kept verbatim as the
// permanent reference every other set is differentially tested against.
// Compiled with -ffp-contract=off so the reference semantics cannot drift
// with compiler defaults.
#include <algorithm>

#include "core/simd/kernels.h"
#include "core/simd/kernels_internal.h"

namespace hydra::core::simd::internal {

double ScalarEuclideanSq(const Value* a, const Value* b, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return acc;
}

// The line kernel's reference: blocks in rank order, each summed in
// natural order into one accumulator.
double ScalarEuclideanSqLines(const Value* q_ranked, const Value* candidate,
                              const uint32_t* lines, size_t n, double bound) {
  const size_t blocks = (n + kLineValues - 1) / kLineValues;
  double acc = 0.0;
  for (size_t r = 0; r < blocks; ++r) {
    const size_t first = size_t{lines[r]} * kLineValues;
    const size_t width = std::min(kLineValues, n - first);
    const Value* q = q_ranked + r * kLineValues;
    const Value* c = candidate + first;
    for (size_t j = 0; j < width; ++j) {
      const double diff = static_cast<double>(q[j]) - c[j];
      acc += diff * diff;
    }
    if (acc > bound) return acc;
  }
  return acc;
}

double ScalarBoxDistSq(const double* q, const double* lo, const double* hi,
                       size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
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

double ScalarSfaLbSq(const double* q_dft, const uint8_t* word, size_t dims,
                     const double* edges, size_t stride) {
  double acc = 0.0;
  for (size_t d = 0; d < dims; ++d) {
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

double ScalarEapcaNodeLbSq(const double* q_stats, const double* env,
                           const uint32_t* ends, size_t segments) {
  double acc = 0.0;
  uint32_t begin = 0;
  for (size_t s = 0; s < segments; ++s) {
    const double q_mean = q_stats[2 * s];
    const double q_std = q_stats[2 * s + 1];
    const double min_mean = env[4 * s];
    const double max_mean = env[4 * s + 1];
    const double min_std = env[4 * s + 2];
    const double max_std = env[4 * s + 3];
    double dm = 0.0;
    if (q_mean < min_mean) {
      dm = min_mean - q_mean;
    } else if (q_mean > max_mean) {
      dm = q_mean - max_mean;
    }
    double ds = 0.0;
    if (q_std < min_std) {
      ds = min_std - q_std;
    } else if (q_std > max_std) {
      ds = q_std - max_std;
    }
    acc += static_cast<double>(ends[s] - begin) * (dm * dm + ds * ds);
    begin = ends[s];
  }
  return acc;
}

const KernelSet& ScalarKernelsImpl() {
  static constexpr KernelSet kScalar = {
      "scalar",
      /*raw_order_preserved=*/true,
      &ScalarEuclideanSq,
      &ScalarEuclideanSqLines,
      &ScalarBoxDistSq,
      &ScalarSfaLbSq,
      &ScalarEapcaNodeLbSq,
  };
  return kScalar;
}

}  // namespace hydra::core::simd::internal
