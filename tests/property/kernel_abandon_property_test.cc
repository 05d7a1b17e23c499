// Property suite for the early-abandon contract, per kernel set: an
// abandoned result is only comparable to the bound (it must exceed it,
// and the scalar reference's full distance must also exceed it outside a
// floating-point near-tie band), while a non-abandoned result must be bit
// identical to the same set's full distance. Bounds are drawn to land
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

  double DrawBound(double full, util::Rng& rng) {
    switch (rng.UniformInt(0, 4)) {
      case 0: return full;                           // exact tie
      case 1: return 0.0;                            // abandon at once
      case 2: return kInf;                           // never abandon
      default: return full * rng.Uniform(0.1, 1.5);  // around the answer
    }
  }
};

TEST_P(KernelAbandonProperty, AbandonIsBoundComparableElseExact) {
  util::Rng rng(0xAB1 + GetParam());
  const KernelSet& scalar = ScalarKernels();
  for (int iter = 0; iter < 4000; ++iter) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 160));
    const auto a = RandomSeries(n, rng);
    const auto b = RandomSeries(n, rng);
    const double full = set().euclidean_sq(a.data(), b.data(), n);
    const double ref_full = scalar.euclidean_sq(a.data(), b.data(), n);
    const double bound = DrawBound(ref_full, rng);
    const double r =
        set().euclidean_sq_abandon(a.data(), b.data(), n, bound);
    if (r <= bound) {
      // Not abandoned: the result is the set's full distance, exactly.
      EXPECT_EQ(std::bit_cast<uint64_t>(r), std::bit_cast<uint64_t>(full))
          << set().name << " n=" << n << " bound=" << bound;
    } else {
      // Abandoned (or the full distance itself exceeds the bound): the
      // return value must stay comparable to the bound, and the decision
      // must agree with the reference outside the near-tie band.
      EXPECT_GT(r, bound) << set().name << " n=" << n;
      if (!NearTie(ref_full, bound)) {
        EXPECT_GT(ref_full, bound)
            << set().name << " abandoned although the reference distance "
            << ref_full << " is within bound " << bound << " (n=" << n << ")";
      }
    }
  }
}

// The line kernel over the widths of every block-tail shape, candidates at
// byte offsets {0, 4, 16, 60} from a cache line, and bounds 0, around the
// answer (mid) and +inf.
TEST_P(KernelAbandonProperty, LinesAbandonIsBoundComparableElseExact) {
  util::Rng rng(0xAB2 + GetParam());
  const KernelSet& scalar = ScalarKernels();
  for (int iter = 0; iter < 100; ++iter) {
    for (const size_t n :
         {1u, 15u, 16u, 17u, 31u, 48u, 100u, 255u, 256u, 257u}) {
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
             {0.0, ref_full * rng.Uniform(0.1, 1.5), kInf}) {
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
