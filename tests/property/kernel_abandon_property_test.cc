// Property suite for the line kernel's early-abandon contract, per kernel
// set: an abandoned result is only comparable to the bound (it must exceed
// it, and the scalar reference's full distance must also exceed it outside
// a floating-point near-tie band), while a non-abandoned result must be
// bit identical to the same set's unbounded line distance. Bounds land
// below, around, and above the true distance, including exact ties.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/simd/kernels.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace hydra::core::simd {
namespace {

const double kInf = std::numeric_limits<double>::infinity();

// Near-tie band: when |full - bound| is within this relative band, the
// lane-reassociated partial sums of a SIMD set may legitimately disagree
// with the scalar reference about whether the bound was crossed.
bool NearTie(double full, double bound) {
  return std::fabs(full - bound) <= 1e-9 * std::max(1.0, std::fabs(bound));
}

std::vector<Value> RandomSeries(size_t n, util::Rng& rng) {
  std::vector<Value> v(n);
  for (auto& x : v) x = static_cast<Value>(rng.Gaussian());
  return v;
}

class KernelAbandonProperty : public ::testing::TestWithParam<size_t> {
 protected:
  const KernelSet& set() const { return *AllKernelSets()[GetParam()]; }

  void SetUp() override {
    if (!KernelSetSupported(set())) {
      GTEST_SKIP() << "CPU cannot execute kernel set " << set().name;
    }
  }
};

// The line kernel over the widths of every block-tail shape plus one random
// width in [1, 160] per iteration, candidates at byte offsets
// {0, 4, 16, 60} from a cache line, and bounds 0, the reference distance
// itself (an exact tie), around the answer (mid) and +inf.
TEST_P(KernelAbandonProperty, LinesAbandonIsBoundComparableElseExact) {
  util::Rng rng(0xAB2 + GetParam());
  const KernelSet& scalar = ScalarKernels();
  for (int iter = 0; iter < 100; ++iter) {
    const size_t random_width = static_cast<size_t>(rng.UniformInt(1, 160));
    for (const size_t n : {size_t{1}, size_t{15}, size_t{16}, size_t{17},
                           size_t{31}, size_t{48}, size_t{100}, size_t{255},
                           size_t{256}, size_t{257}, random_width}) {
      const auto q = RandomSeries(n, rng);
      const auto c = RandomSeries(n, rng);
      const QueryOrder order(q);
      const double ref_full = scalar.euclidean_sq(q.data(), c.data(), n);
      for (const size_t offset_bytes : {0u, 4u, 16u, 60u}) {
        const size_t shift = offset_bytes / sizeof(Value);
        util::LineAlignedArray<Value> buf =
            util::MakeLineAlignedArray<Value>(shift + n);
        std::copy(c.begin(), c.end(), buf.get() + shift);
        const Value* cand = buf.get() + shift;
        const double full = set().euclidean_sq_lines(
            order.ranked_query().data(), cand, order.lines().data(), n, kInf);
        for (const double bound :
             {0.0, ref_full, ref_full * rng.Uniform(0.1, 1.5), kInf}) {
          const double r = set().euclidean_sq_lines(
              order.ranked_query().data(), cand, order.lines().data(), n,
              bound);
          if (r <= bound) {
            EXPECT_EQ(std::bit_cast<uint64_t>(r),
                      std::bit_cast<uint64_t>(full))
                << set().name << " n=" << n << " bound=" << bound;
          } else {
            EXPECT_GT(r, bound) << set().name << " n=" << n;
            if (!NearTie(ref_full, bound)) {
              EXPECT_GT(ref_full, bound)
                  << set().name << " line abandon disagrees with the "
                  << "reference distance " << ref_full << " under bound "
                  << bound << " (n=" << n << ")";
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSets, KernelAbandonProperty,
    ::testing::Range(size_t{0}, AllKernelSets().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(AllKernelSets()[info.param]->name);
    });

}  // namespace
}  // namespace hydra::core::simd
