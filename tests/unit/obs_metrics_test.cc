// Metrics registry battery: histogram bucket-boundary math (log-scale
// bounds invert exactly), bucketed quantiles with their documented error
// bound, counter/gauge basics, registry identity and dumps, and the
// SearchStats publishing bridge.
#include "obs/metrics.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/search_stats.h"

namespace hydra::obs {
namespace {

/// Every test starts from an empty registry; the registry is process-wide.
class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::Get().ResetForTest(); }
  void TearDown() override { Registry::Get().ResetForTest(); }
};

TEST_F(ObsMetricsTest, BucketBoundsGrowByQuarterPowerOfTwo) {
  const double ratio = std::exp2(0.25);
  for (size_t i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_NEAR(Histogram::BucketBound(i) / Histogram::BucketBound(i - 1),
                ratio, 1e-12)
        << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(0), 1e-6);
}

TEST_F(ObsMetricsTest, BucketIndexInvertsBucketBound) {
  // The boundary value itself must land in its own bucket — the exact
  // inverse relation the quantile error bound is derived from.
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketBound(i)), i)
        << "bound " << Histogram::BucketBound(i);
  }
}

TEST_F(ObsMetricsTest, BucketIndexInteriorValuesLandBetweenBounds) {
  for (size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
    const double mid = std::sqrt(Histogram::BucketBound(i - 1) *
                                 Histogram::BucketBound(i));
    EXPECT_EQ(Histogram::BucketIndex(mid), i) << "between " << i - 1
                                              << " and " << i;
  }
}

TEST_F(ObsMetricsTest, BucketIndexClampsAtBothEnds) {
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e-9), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e18), Histogram::kBuckets - 1);
}

TEST_F(ObsMetricsTest, QuantileIsBucketUpperBoundWithinErrorBound) {
  Histogram h;
  const double value = 0.0123;
  for (int i = 0; i < 100; ++i) h.Observe(value);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 1.23, 1e-9);
  const double p50 = h.Quantile(0.50);
  // Bucketed: the reported quantile is the bucket's upper bound — never
  // below the true value and at most 2^(1/4)-1 relative above it.
  EXPECT_GE(p50, value);
  EXPECT_LE(p50, value * std::exp2(0.25) * (1.0 + 1e-12));
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), p50);  // all mass in one bucket
}

TEST_F(ObsMetricsTest, QuantileWalksCumulativeRanks) {
  Histogram h;
  // 90 fast observations, 10 slow: p50 lands in the fast bucket, p95 and
  // p99 in the slow one.
  for (int i = 0; i < 90; ++i) h.Observe(0.001);
  for (int i = 0; i < 10; ++i) h.Observe(1.0);
  EXPECT_LT(h.Quantile(0.50), 0.0013);
  EXPECT_GE(h.Quantile(0.95), 1.0);
  EXPECT_GE(h.Quantile(0.99), 1.0);
}

TEST_F(ObsMetricsTest, CounterAndGaugeBasics) {
  Counter c;
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.value(), 7);
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST_F(ObsMetricsTest, RegistryReturnsSamePointerPerName) {
  Registry& reg = Registry::Get();
  Counter* a = reg.GetCounter("x.count");
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Add(1);
  EXPECT_EQ(b->value(), 1);
  EXPECT_NE(reg.GetHistogram("x.hist"), nullptr);
  EXPECT_NE(reg.GetGauge("x.gauge"), nullptr);
}

TEST_F(ObsMetricsTest, TextDumpListsEveryMetric) {
  Registry& reg = Registry::Get();
  reg.GetCounter("queries")->Add(5);
  reg.GetGauge("pool.fill")->Set(0.5);
  reg.GetHistogram("latency")->Observe(0.01);
  const std::string dump = reg.TextDump();
  EXPECT_NE(dump.find("counter queries 5"), std::string::npos) << dump;
  EXPECT_NE(dump.find("gauge pool.fill"), std::string::npos);
  EXPECT_NE(dump.find("histogram latency count=1"), std::string::npos);
  EXPECT_NE(dump.find("p50="), std::string::npos);
}

TEST_F(ObsMetricsTest, PublishSearchStatsBridgesTheLedger) {
  core::SearchStats stats;
  int64_t value = 11;
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    stats.*counter.member = value;
    value += 11;
  }
  stats.cpu_seconds = 0.004;
  PublishSearchStats(stats, "test");
  PublishSearchStats(stats, "test");  // accumulates, not overwrites
  Registry& reg = Registry::Get();
  EXPECT_EQ(reg.GetCounter("test.queries")->value(), 2);
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    EXPECT_EQ(reg.GetCounter(std::string("test.") + counter.name)->value(),
              2 * (stats.*counter.member))
        << counter.name;
  }
  EXPECT_EQ(reg.GetCounter("test.distance_computations")->value(), 22);
  EXPECT_EQ(reg.GetHistogram("test.cpu_seconds")->count(), 2u);
}

}  // namespace
}  // namespace hydra::obs
