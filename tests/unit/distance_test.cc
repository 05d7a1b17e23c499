#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "util/rng.h"

namespace hydra::core {
namespace {

TEST(SquaredEuclidean, KnownValues) {
  const std::vector<Value> a = {0, 0, 0};
  const std::vector<Value> b = {1, 2, 2};
  EXPECT_DOUBLE_EQ(SquaredEuclidean(a, b), 9.0);
  EXPECT_DOUBLE_EQ(SquaredEuclidean(a, a), 0.0);
}

TEST(SquaredEuclidean, Symmetric) {
  util::Rng rng(1);
  std::vector<Value> a(37);
  std::vector<Value> b(37);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<Value>(rng.Gaussian());
    b[i] = static_cast<Value>(rng.Gaussian());
  }
  EXPECT_DOUBLE_EQ(SquaredEuclidean(a, b), SquaredEuclidean(b, a));
}

TEST(EarlyAbandon, MatchesPlainDistanceWhenNotAbandoned) {
  util::Rng rng(2);
  std::vector<Value> a(64);
  std::vector<Value> b(64);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<Value>(rng.Gaussian());
    b[i] = static_cast<Value>(rng.Gaussian());
  }
  const double exact = SquaredEuclidean(a, b);
  const double inf = std::numeric_limits<double>::infinity();
  // The two kernels may reduce in different orders: the kernel contract's
  // relative error bound, 16 * n * 2^-53.
  const double tol = 16.0 * a.size() * std::ldexp(1.0, -53) * exact;
  EXPECT_NEAR(QueryOrder(a).Distance(b, inf), exact, tol);
}

TEST(EarlyAbandon, AbandonsAboveBound) {
  std::vector<Value> a(64, 0.0f);
  std::vector<Value> b(64, 1.0f);  // true distance 64
  const double r = QueryOrder(a).Distance(b, 4.0);
  EXPECT_GT(r, 4.0);   // must report violation
  EXPECT_LT(r, 64.0);  // but should not have computed everything
}

TEST(QueryOrder, RanksBlocksByEnergyTiesByIndex) {
  // Four 16-value blocks with energies 1, 4, 4, 0: the tie between blocks
  // 1 and 2 goes to the lower index.
  std::vector<Value> q(64, 0.0f);
  q[3] = 1.0f;
  q[16] = 2.0f;
  q[47] = -2.0f;
  QueryOrder order(q);
  EXPECT_EQ(std::vector<uint32_t>(order.lines().begin(), order.lines().end()),
            (std::vector<uint32_t>{1, 2, 0, 3}));
  ASSERT_EQ(order.ranked_query().size(), 64u);
  EXPECT_EQ(order.ranked_query()[0], 2.0f);    // block 1, value 0
  EXPECT_EQ(order.ranked_query()[31], -2.0f);  // block 2, value 15
  EXPECT_EQ(order.ranked_query()[35], 1.0f);   // block 0, value 3
}

TEST(QueryOrder, PartialLastBlockRankedLikeAnyOther) {
  // 35 values: two full blocks and a 3-value block holding the largest
  // energy, which ranks first and is zero-padded to a whole block.
  std::vector<Value> q(35, 0.5f);
  q[33] = 3.0f;
  QueryOrder order(q);
  EXPECT_EQ(std::vector<uint32_t>(order.lines().begin(), order.lines().end()),
            (std::vector<uint32_t>{2, 0, 1}));
  ASSERT_EQ(order.ranked_query().size(), 48u);
  EXPECT_EQ(order.ranked_query()[0], 0.5f);
  EXPECT_EQ(order.ranked_query()[1], 3.0f);
  EXPECT_EQ(order.ranked_query()[2], 0.5f);
  for (size_t i = 3; i < 16; ++i) EXPECT_EQ(order.ranked_query()[i], 0.0f);

  std::vector<Value> c(35, 0.0f);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(order.Distance(c, inf), SquaredEuclidean(q, c));
}

TEST(QueryOrder, ResetReusesBuffers) {
  util::Rng rng(5);
  std::vector<Value> a(256);
  std::vector<Value> b(256);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<Value>(rng.Gaussian());
    b[i] = static_cast<Value>(rng.Gaussian());
  }
  QueryOrder order(a);
  const uint32_t* lines = order.lines().data();
  const Value* ranked = order.ranked_query().data();
  order.Reset(b);
  EXPECT_EQ(order.lines().data(), lines);
  EXPECT_EQ(order.ranked_query().data(), ranked);
  EXPECT_EQ(order.lines().size(), 16u);
  // A shorter query fits the same buffers.
  order.Reset(std::span<const Value>(a).first(100));
  EXPECT_EQ(order.lines().data(), lines);
  EXPECT_EQ(order.ranked_query().data(), ranked);
  EXPECT_EQ(order.lines().size(), 7u);
}

TEST(QueryOrder, DistanceEqualsPlainWhenUnbounded) {
  util::Rng rng(3);
  std::vector<Value> q(128);
  std::vector<Value> c(128);
  for (size_t i = 0; i < q.size(); ++i) {
    q[i] = static_cast<Value>(rng.Gaussian());
    c[i] = static_cast<Value>(rng.Gaussian());
  }
  QueryOrder order(q);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_NEAR(order.Distance(c, inf), SquaredEuclidean(q, c), 1e-9);
}

TEST(QueryOrder, NeverUnderestimatesWhenAbandoning) {
  // If the reported value exceeds the bound, the true distance must too --
  // this is what makes early abandoning safe for pruning.
  util::Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Value> q(32);
    std::vector<Value> c(32);
    for (size_t i = 0; i < q.size(); ++i) {
      q[i] = static_cast<Value>(rng.Gaussian());
      c[i] = static_cast<Value>(rng.Gaussian());
    }
    QueryOrder order(q);
    const double bound = rng.Uniform(0.0, 80.0);
    const double reported = order.Distance(c, bound);
    const double exact = SquaredEuclidean(q, c);
    if (reported > bound) {
      EXPECT_GT(exact, bound) << "abandoned although within bound";
    } else {
      EXPECT_NEAR(reported, exact, 1e-9);
    }
  }
}

}  // namespace
}  // namespace hydra::core
