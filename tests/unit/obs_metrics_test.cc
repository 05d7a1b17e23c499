// Metrics registry battery: histogram bucket-boundary math (log-scale
// bounds invert exactly), bucketed quantiles with their documented error
// bound, counter basics, and registry identity and dumps. The serve
// ledger counters are covered end to end by serve_test.
#include "obs/metrics.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

namespace hydra::obs {
namespace {

TEST(ObsMetricsTest, BucketBoundsGrowByQuarterPowerOfTwo) {
  const double ratio = std::exp2(0.25);
  for (size_t i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_NEAR(Histogram::BucketBound(i) / Histogram::BucketBound(i - 1),
                ratio, 1e-12)
        << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::kRelativeError, ratio - 1.0);
}

TEST(ObsMetricsTest, BucketIndexInvertsBucketBound) {
  // The boundary value itself must land in its own bucket — the exact
  // inverse relation the quantile error bound is derived from.
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketBound(i)), i)
        << "bound " << Histogram::BucketBound(i);
  }
}

TEST(ObsMetricsTest, BucketIndexInteriorValuesLandBetweenBounds) {
  for (size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
    const double mid = std::sqrt(Histogram::BucketBound(i - 1) *
                                 Histogram::BucketBound(i));
    EXPECT_EQ(Histogram::BucketIndex(mid), i) << "between " << i - 1
                                              << " and " << i;
  }
}

TEST(ObsMetricsTest, BucketIndexClampsAtBothEnds) {
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e-9), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e18), Histogram::kBuckets - 1);
}

TEST(ObsMetricsTest, QuantileIsBucketUpperBoundWithinErrorBound) {
  Histogram h;
  const double value = 0.0123;
  for (int i = 0; i < 100; ++i) h.Observe(value);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 1.23, 1e-9);
  const double p50 = h.Quantile(0.50);
  // Bucketed: the reported quantile is the bucket's upper bound — never
  // below the true value and at most 2^(1/4)-1 relative above it.
  EXPECT_GE(p50, value);
  EXPECT_LE(p50, value * (1.0 + Histogram::kRelativeError) * (1.0 + 1e-12));
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), p50);  // all mass in one bucket
}

TEST(ObsMetricsTest, QuantileWalksCumulativeRanks) {
  Histogram h;
  // 90 fast observations, 10 slow: p50 lands in the fast bucket, p95 and
  // p99 in the slow one.
  for (int i = 0; i < 90; ++i) h.Observe(0.001);
  for (int i = 0; i < 10; ++i) h.Observe(1.0);
  EXPECT_LT(h.Quantile(0.50), 0.0013);
  EXPECT_GE(h.Quantile(0.95), 1.0);
  EXPECT_GE(h.Quantile(0.99), 1.0);
}

TEST(ObsMetricsTest, CounterBasics) {
  Counter c;
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.value(), 7);
}

TEST(ObsMetricsTest, RegistryReturnsSamePointerPerName) {
  Registry reg;
  Counter* a = reg.GetCounter("x.count");
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Add(1);
  EXPECT_EQ(b->value(), 1);
  EXPECT_NE(reg.GetHistogram("x.hist"), nullptr);
  // Registries share nothing: each keeps its own metric of a name.
  Registry other;
  EXPECT_NE(other.GetCounter("x.count"), a);
  EXPECT_EQ(other.GetCounter("x.count")->value(), 0);
}

TEST(ObsMetricsTest, TextDumpListsEveryMetric) {
  Registry reg;
  reg.GetCounter("queries")->Add(5);
  reg.GetHistogram("latency")->Observe(0.01);
  const std::string dump = reg.TextDump();
  EXPECT_NE(dump.find("counter queries 5"), std::string::npos) << dump;
  EXPECT_NE(dump.find("histogram latency count=1"), std::string::npos);
  EXPECT_NE(dump.find("p50="), std::string::npos);
}

}  // namespace
}  // namespace hydra::obs
