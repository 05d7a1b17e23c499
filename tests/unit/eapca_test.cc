#include <cmath>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "transform/eapca.h"
#include "util/rng.h"

namespace hydra::transform {
namespace {

std::vector<core::Value> RandomSeries(util::Rng* rng, size_t n) {
  std::vector<core::Value> x(n);
  for (auto& v : x) v = static_cast<core::Value>(rng->Gaussian());
  return x;
}

TEST(Segmentation, UniformCoversRange) {
  const auto seg = Segmentation::Uniform(10, 3);
  ASSERT_EQ(seg.segments(), 3u);
  EXPECT_EQ(seg.begin_of(0), 0u);
  EXPECT_EQ(seg.ends[2], 10u);
  size_t total = 0;
  for (size_t s = 0; s < 3; ++s) total += seg.length_of(s);
  EXPECT_EQ(total, 10u);
}

TEST(ComputeEapca, MeanAndStddevPerSegment) {
  const std::vector<core::Value> x = {1, 1, 5, 9};
  const auto seg = Segmentation::Uniform(4, 2);
  const auto e = ComputeEapca(x, seg);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_DOUBLE_EQ(e[0].mean, 1.0);
  EXPECT_DOUBLE_EQ(e[0].stddev, 0.0);
  EXPECT_DOUBLE_EQ(e[1].mean, 7.0);
  EXPECT_DOUBLE_EQ(e[1].stddev, 2.0);
}

TEST(EapcaPointLb, LowerBoundsTrueDistance) {
  util::Rng rng(41);
  const size_t n = 96;
  for (const size_t segments : {1u, 3u, 8u}) {
    const auto seg = Segmentation::Uniform(n, segments);
    for (int trial = 0; trial < 200; ++trial) {
      const auto x = RandomSeries(&rng, n);
      const auto y = RandomSeries(&rng, n);
      const double lb =
          EapcaPointLbSq(ComputeEapca(x, seg), ComputeEapca(y, seg), seg);
      EXPECT_LE(lb, core::SquaredEuclidean(x, y) + 1e-9)
          << "segments=" << segments;
    }
  }
}

TEST(EapcaNodeBounds, EnvelopeBoundsMembers) {
  util::Rng rng(42);
  const size_t n = 64;
  const auto seg = Segmentation::Uniform(n, 4);

  // Build an envelope over a small "node" of series.
  std::vector<std::vector<core::Value>> members;
  std::vector<SegmentRange> ranges(seg.segments());
  for (int i = 0; i < 20; ++i) {
    members.push_back(RandomSeries(&rng, n));
    const auto stats = ComputeEapca(members.back(), seg);
    for (size_t s = 0; s < seg.segments(); ++s) {
      ranges[s].Extend(stats[s], i == 0);
    }
  }
  for (int trial = 0; trial < 50; ++trial) {
    const auto q = RandomSeries(&rng, n);
    const auto q_stats = ComputeEapca(q, seg);
    const double lb = EapcaNodeLbSq(q_stats, ranges, seg);
    for (const auto& m : members) {
      const double d = core::SquaredEuclidean(q, m);
      EXPECT_LE(lb, d + 1e-9);
    }
  }
}

TEST(EapcaNodeBounds, TightForSingletonEnvelope) {
  // A node holding one series: lb equals the point lower bound.
  util::Rng rng(43);
  const size_t n = 32;
  const auto seg = Segmentation::Uniform(n, 4);
  const auto x = RandomSeries(&rng, n);
  const auto q = RandomSeries(&rng, n);
  const auto xs = ComputeEapca(x, seg);
  std::vector<SegmentRange> ranges(seg.segments());
  for (size_t s = 0; s < seg.segments(); ++s) ranges[s].Extend(xs[s], true);
  const auto qs = ComputeEapca(q, seg);
  EXPECT_NEAR(EapcaNodeLbSq(qs, ranges, seg), EapcaPointLbSq(qs, xs, seg),
              1e-9);
}

TEST(SegmentRange, ExtendGrowsEnvelope) {
  SegmentRange r;
  r.Extend({1.0, 0.5}, true);
  r.Extend({2.0, 0.1}, false);
  EXPECT_DOUBLE_EQ(r.min_mean, 1.0);
  EXPECT_DOUBLE_EQ(r.max_mean, 2.0);
  EXPECT_DOUBLE_EQ(r.min_std, 0.1);
  EXPECT_DOUBLE_EQ(r.max_std, 0.5);
}

TEST(EapcaPointLb, FinerSegmentationIsTighter) {
  // Refining the segmentation can only improve (or keep) the bound on
  // average; verify on aggregate.
  util::Rng rng(44);
  const size_t n = 64;
  const auto coarse = Segmentation::Uniform(n, 2);
  const auto fine = Segmentation::Uniform(n, 8);
  double coarse_sum = 0.0;
  double fine_sum = 0.0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto x = RandomSeries(&rng, n);
    const auto y = RandomSeries(&rng, n);
    coarse_sum += EapcaPointLbSq(ComputeEapca(x, coarse),
                                 ComputeEapca(y, coarse), coarse);
    fine_sum +=
        EapcaPointLbSq(ComputeEapca(x, fine), ComputeEapca(y, fine), fine);
  }
  EXPECT_GT(fine_sum, coarse_sum);
}

}  // namespace
}  // namespace hydra::transform
