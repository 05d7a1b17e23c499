// Differential kernel-conformance battery: every compiled kernel set runs
// against the scalar reference across widths 1..130 (every vector-tail
// remainder of the 4/8/16-lane shapes; the line kernel at the block-tail
// widths 1..257 and four cache-line offsets) on z-normalized and adversarial
// inputs (denormals, mixed magnitudes, +/-0, infinite box edges, exact
// ties). Order-preserving kernels — all summary lower bounds, plus the
// raw kernels of sets advertising raw_order_preserved — must match the
// reference bit for bit; the remaining raw kernels must stay within the
// documented relative tolerance 16 * n * 2^-53. Within each set, a
// non-abandoned line distance must equal the set's own unbounded one bit
// for bit.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/simd/kernels.h"
#include "core/distance.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace hydra::core::simd {
namespace {

constexpr size_t kMaxWidth = 130;
const double kInf = std::numeric_limits<double>::infinity();

// Asserts exact bit identity (EXPECT_DOUBLE_EQ would accept -0 vs +0 and
// ulp-4 drift; the order-preserving contract is stronger).
#define EXPECT_BITEQ(a, b)                                 \
  EXPECT_EQ(std::bit_cast<uint64_t>(static_cast<double>(a)), \
            std::bit_cast<uint64_t>(static_cast<double>(b)))

// The documented raw-kernel tolerance: lane reassociation over a
// perfectly conditioned (all-nonnegative) sum.
void ExpectWithinRawTol(double got, double want, size_t n) {
  const double tol = 16.0 * static_cast<double>(n) * std::ldexp(1.0, -53);
  EXPECT_NEAR(got, want, std::fabs(want) * tol + 1e-300)
      << "width " << n;
}

std::vector<Value> AdversarialFloats(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Value> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(0, 7)) {
      case 0: v[i] = 0.0f; break;
      case 1: v[i] = -0.0f; break;
      case 2: v[i] = 1e-42f; break;  // subnormal float
      case 3: v[i] = -1e-42f; break;
      case 4: v[i] = static_cast<Value>(rng.Gaussian() * 1e18); break;
      case 5: v[i] = static_cast<Value>(rng.Gaussian() * 1e-18); break;
      default: v[i] = static_cast<Value>(rng.Gaussian()); break;
    }
  }
  return v;
}

class KernelConformanceTest : public ::testing::TestWithParam<size_t> {
 protected:
  const KernelSet& set() const { return *AllKernelSets()[GetParam()]; }
  const KernelSet& ref() const { return ScalarKernels(); }

  void SetUp() override {
    if (!KernelSetSupported(set())) {
      GTEST_SKIP() << "CPU cannot execute kernel set " << set().name;
    }
  }
};

TEST_P(KernelConformanceTest, EuclideanMatchesReferenceOnAllWidths) {
  for (size_t n = 1; n <= kMaxWidth; ++n) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      const auto a = AdversarialFloats(n, 100 * n + seed);
      const auto b = AdversarialFloats(n, 200 * n + seed);
      const double want = ref().euclidean_sq(a.data(), b.data(), n);
      const double got = set().euclidean_sq(a.data(), b.data(), n);
      if (set().raw_order_preserved) {
        EXPECT_BITEQ(got, want) << set().name << " width " << n;
      } else {
        ExpectWithinRawTol(got, want, n);
      }
    }
  }
}

// The line kernel over every block-tail shape (partial last blocks of 1,
// 15 and 1 values, exact multiples, a single short block) with the
// candidate at several byte offsets from a cache line, built through
// QueryOrder exactly as the query paths build it. The candidate sits at the
// end of its buffer, so a partial last block that read past the series
// would show under the sanitizers.
TEST_P(KernelConformanceTest, LinesMatchReferenceOnAllWidths) {
  for (const size_t n : {1u, 15u, 16u, 17u, 31u, 48u, 100u, 255u, 256u, 257u}) {
    const auto q = AdversarialFloats(n, 500 + n);
    const auto c = AdversarialFloats(n, 600 + n);
    const QueryOrder order(q);
    for (const size_t offset_bytes : {0u, 4u, 16u, 60u}) {
      const size_t shift = offset_bytes / sizeof(Value);
      util::LineAlignedArray<Value> buf =
          util::MakeLineAlignedArray<Value>(shift + n);
      std::copy(c.begin(), c.end(), buf.get() + shift);
      const Value* cand = buf.get() + shift;
      const double full = ref().euclidean_sq(q.data(), c.data(), n);
      for (const double bound : {0.0, full / 2, kInf}) {
        const double want =
            ref().euclidean_sq_lines(order.ranked_query().data(), cand,
                                     order.lines().data(), n, bound);
        const double got =
            set().euclidean_sq_lines(order.ranked_query().data(), cand,
                                     order.lines().data(), n, bound);
        const double unbounded =
            set().euclidean_sq_lines(order.ranked_query().data(), cand,
                                     order.lines().data(), n, kInf);
        if (bound == kInf) {
          if (set().raw_order_preserved) {
            EXPECT_BITEQ(got, want) << set().name << " width " << n;
          } else {
            ExpectWithinRawTol(got, want, n);
          }
          ExpectWithinRawTol(got, full, n);
        } else if (got <= bound) {
          // Not abandoned: the set's full line distance, bit for bit.
          EXPECT_BITEQ(got, unbounded) << set().name << " width " << n;
        } else {
          EXPECT_GT(got, bound) << set().name << " width " << n;
        }
        if (bound == 0.0 && full > 0.0) {
          EXPECT_GT(got, 0.0) << set().name << " width " << n;
        }
      }
    }
  }
}

TEST_P(KernelConformanceTest, BoxDistBitIdenticalOnAllWidths) {
  for (size_t n = 1; n <= kMaxWidth; ++n) {
    util::Rng rng(900 + n);
    std::vector<double> q(n);
    std::vector<double> lo(n);
    std::vector<double> hi(n);
    for (size_t i = 0; i < n; ++i) {
      q[i] = rng.Gaussian();
      double a = rng.Gaussian();
      double b = rng.Gaussian();
      if (a > b) std::swap(a, b);
      switch (rng.UniformInt(0, 5)) {
        case 0: a = -kInf; break;                  // open below
        case 1: b = kInf; break;                   // open above
        case 2: a = -kInf; b = kInf; break;        // whole domain
        case 3: a = b = q[i]; break;               // degenerate tie on q
        case 4: b = a; break;                      // degenerate interval
        default: break;
      }
      lo[i] = a;
      hi[i] = b;
      if (rng.UniformInt(0, 3) == 0) q[i] = lo[i];  // exact edge tie
    }
    const double want = ref().box_dist_sq(q.data(), lo.data(), hi.data(), n);
    const double got = set().box_dist_sq(q.data(), lo.data(), hi.data(), n);
    EXPECT_BITEQ(got, want) << set().name << " width " << n;
  }
}

TEST_P(KernelConformanceTest, SfaLowerBoundBitIdenticalOnAllWidths) {
  constexpr int kAlphabet = 7;  // odd on purpose: unaligned row stride
  constexpr size_t kStride = kAlphabet + 1;
  for (size_t n = 1; n <= kMaxWidth; ++n) {
    util::Rng rng(1100 + n);
    std::vector<double> edges(n * kStride);
    std::vector<uint8_t> word(n);
    std::vector<double> q(n);
    for (size_t d = 0; d < n; ++d) {
      std::vector<double> bins(kAlphabet - 1);
      for (double& x : bins) x = rng.Gaussian();
      std::sort(bins.begin(), bins.end());
      double* row = edges.data() + d * kStride;
      row[0] = -kInf;
      for (size_t b = 0; b < bins.size(); ++b) row[b + 1] = bins[b];
      row[kStride - 1] = kInf;
      word[d] = static_cast<uint8_t>(rng.UniformInt(0, kAlphabet - 1));
      q[d] = rng.Gaussian() * 2.0;
    }
    const double want =
        ref().sfa_lb_sq(q.data(), word.data(), n, edges.data(), kStride);
    const double got =
        set().sfa_lb_sq(q.data(), word.data(), n, edges.data(), kStride);
    EXPECT_BITEQ(got, want) << set().name << " dims " << n;
  }
}

TEST_P(KernelConformanceTest, EapcaNodeLbBitIdenticalOnAllWidths) {
  for (size_t n = 1; n <= kMaxWidth; ++n) {
    util::Rng rng(1300 + n);
    std::vector<double> q_stats(2 * n);
    std::vector<double> env(4 * n);
    std::vector<uint32_t> ends(n);
    uint32_t end = 0;
    for (size_t s = 0; s < n; ++s) {
      end += static_cast<uint32_t>(rng.UniformInt(1, 9));
      ends[s] = end;
      q_stats[2 * s] = rng.Gaussian();
      q_stats[2 * s + 1] = std::fabs(rng.Gaussian());
      double m1 = rng.Gaussian();
      double m2 = rng.Gaussian();
      if (m1 > m2) std::swap(m1, m2);
      double s1 = std::fabs(rng.Gaussian());
      double s2 = std::fabs(rng.Gaussian());
      if (s1 > s2) std::swap(s1, s2);
      if (rng.UniformInt(0, 4) == 0) m2 = m1;  // degenerate envelope
      env[4 * s] = m1;
      env[4 * s + 1] = m2;
      env[4 * s + 2] = s1;
      env[4 * s + 3] = s2;
    }
    const double want =
        ref().eapca_node_lb_sq(q_stats.data(), env.data(), ends.data(), n);
    const double got =
        set().eapca_node_lb_sq(q_stats.data(), env.data(), ends.data(), n);
    EXPECT_BITEQ(got, want) << set().name << " segments " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSets, KernelConformanceTest,
    ::testing::Range(size_t{0}, AllKernelSets().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(AllKernelSets()[info.param]->name);
    });

TEST(KernelRegistry, ScalarAndPortableAlwaysSupported) {
  const auto supported = SupportedKernelSets();
  ASSERT_GE(supported.size(), 2u);
  EXPECT_STREQ(supported[0]->name, "scalar");
  EXPECT_STREQ(supported[1]->name, "portable");
  for (const KernelSet* set : supported) {
    EXPECT_TRUE(KernelSetSupported(*set));
  }
}

TEST(KernelRegistry, FindAndUse) {
  EXPECT_EQ(FindKernelSet("nope"), nullptr);
  ASSERT_NE(FindKernelSet("scalar"), nullptr);
  EXPECT_FALSE(UseKernels("nope").ok());

  const KernelSet& prior = ActiveKernels();
  ASSERT_TRUE(UseKernels("scalar").ok());
  EXPECT_EQ(&ActiveKernels(), &ScalarKernels());
  ASSERT_TRUE(UseKernels(prior.name).ok());
  EXPECT_EQ(&ActiveKernels(), &prior);
}

}  // namespace
}  // namespace hydra::core::simd
