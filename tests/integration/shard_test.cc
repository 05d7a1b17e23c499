// The sharded container beyond answer identity (the identity oracle's
// shards axis): which methods shard, budgets split without exceeding the
// global cap, the shard count clamps to the collection, ledgers sum
// across shards, and manifest problems surface as clean util::Status
// errors, never crashes.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/distance.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "io/index_codec.h"
#include "shard/sharded_index.h"

namespace hydra {
namespace {

constexpr size_t kCount = 400;
constexpr size_t kLength = 64;
constexpr size_t kLeaf = 64;
constexpr size_t kK = 5;

core::Dataset TestData() {
  return gen::RandomWalkDataset(kCount, kLength, 7401);
}
gen::Workload TestQueries() { return gen::RandWorkload(4, kLength, 7402); }

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void ExpectSameAnswers(const std::vector<core::Neighbor>& got,
                       const std::vector<core::Neighbor>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    EXPECT_EQ(got[i].dist_sq, want[i].dist_sq) << context << " rank " << i;
  }
}

TEST(ShardedTraits, SevenIndexMethodsShardScansDoNot) {
  const auto shardable = bench::ShardableNames();
  EXPECT_EQ(shardable.size(), 7u);
  for (const std::string& name : bench::AllMethodNames()) {
    const core::MethodTraits t = bench::CreateMethod(name)->traits();
    const bool expected =
        std::find(shardable.begin(), shardable.end(), name) !=
        shardable.end();
    EXPECT_EQ(t.shardable, expected) << name;
    if (!t.shardable) {
      EXPECT_FALSE(t.shard_reason.empty()) << name;
    }
  }
  // The container mirrors its component's quality traits but refuses to
  // nest.
  for (const std::string& name : shardable) {
    const core::MethodTraits inner = bench::CreateMethod(name)->traits();
    const core::MethodTraits outer =
        bench::CreateShardedMethod(name, 2, 1)->traits();
    EXPECT_EQ(outer.supports_ng, inner.supports_ng) << name;
    EXPECT_EQ(outer.supports_epsilon, inner.supports_epsilon) << name;
    EXPECT_EQ(outer.supports_delta_epsilon, inner.supports_delta_epsilon)
        << name;
    EXPECT_EQ(outer.leaf_visit_budget, inner.leaf_visit_budget) << name;
    EXPECT_EQ(outer.supports_persistence, inner.supports_persistence)
        << name;
    EXPECT_FALSE(outer.shardable) << name;
    EXPECT_FALSE(outer.shard_reason.empty()) << name;
  }
}

TEST(ShardedBudgets, GlobalRawBudgetIsNeverExceededBySplitShards) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  for (const std::string& name : bench::ShardableNames()) {
    for (const int64_t budget : {int64_t{3}, int64_t{50}}) {
      // budget=3 over 7 shards starves four of them (split rule: B/N with
      // the first B mod N shards getting one extra).
      auto sharded = bench::CreateShardedMethod(name, 7, 2, kLeaf);
      sharded->Build(data);
      core::QuerySpec spec = core::QuerySpec::Knn(kK);
      spec.max_raw_series = budget;
      const core::QueryResult r =
          sharded->Execute(workload.queries[0], spec);
      EXPECT_LE(r.stats.raw_series_examined, budget)
          << name << " budget=" << budget;
      if (r.budget_fired()) {
        EXPECT_EQ(r.delivered(), core::QualityMode::kNgApprox) << name;
      }
      // Whatever came back reports true distances (the id's real
      // distance to the query), truncated or not. Methods sum dimensions
      // in reordered-early-abandon order, so allow a few ulps against the
      // straight-sum oracle.
      for (const core::Neighbor& n : r.neighbors) {
        const double truth =
            core::SquaredEuclidean(workload.queries[0], data[n.id]);
        EXPECT_NEAR(n.dist_sq, truth, 1e-9 * (1.0 + truth)) << name;
      }
    }
  }
}

TEST(ShardedLayout, ShardCountClampsToTheDatasetSize) {
  const core::Dataset small = gen::RandomWalkDataset(5, kLength, 7403);
  auto sharded = bench::CreateShardedMethod("DSTree", 1000, 2, kLeaf);
  sharded->Build(small);
  const auto* container =
      dynamic_cast<const shard::ShardedIndex*>(sharded.get());
  ASSERT_NE(container, nullptr);
  EXPECT_EQ(container->shard_count(), 5u);  // one series per shard
  const gen::Workload workload = gen::RandWorkload(2, kLength, 7404);
  auto reference = bench::CreateMethod("DSTree", kLeaf);
  reference->Build(small);
  for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
    const core::SeriesView q = workload.queries[qi];
    // k beyond the collection: every series comes back, merged across
    // the one-series shards, identical to the unsharded answer.
    ExpectSameAnswers(
        sharded->Execute(q, core::QuerySpec::Knn(10)).neighbors,
        reference->Execute(q, core::QuerySpec::Knn(10)).neighbors,
        "clamped shards");
  }
}

TEST(ShardedStats, LedgersSumAcrossShards) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  // VA+file reads every approximation cell: lower_bound_computations is
  // exactly 2N per query regardless of sharding, so the summed ledger is
  // checkable in closed form.
  auto sharded = bench::CreateShardedMethod("VA+file", 7, 1);
  sharded->Build(data);
  const core::QueryResult r =
      sharded->Execute(workload.queries[0], core::QuerySpec::Knn(kK));
  EXPECT_EQ(r.stats.lower_bound_computations,
            static_cast<int64_t>(2 * kCount));
  EXPECT_GT(r.stats.cpu_seconds, 0.0);
  // The footprint also aggregates across shards.
  const core::Footprint fp = sharded->footprint();
  EXPECT_GT(fp.memory_bytes, 0);
}

TEST(ShardedErrors, ForeignAndGarbledContainersFailCleanly) {
  const core::Dataset data = TestData();
  const std::string dir = FreshDir("shard_err");
  auto built = bench::CreateShardedMethod("DSTree", 2, 1, kLeaf);
  built->Build(data);
  ASSERT_TRUE(built->Save(dir).ok());

  // A plain method refuses the sharded container (method-name mismatch).
  auto plain = bench::CreateMethod("DSTree", kLeaf);
  const auto plain_open = plain->Open(dir, data);
  EXPECT_FALSE(plain_open.ok());
  EXPECT_NE(plain_open.status().message().find("Sharded[DSTree]"),
            std::string::npos);

  // A sharded container of another component refuses too.
  auto wrong_inner = bench::CreateShardedMethod("SFA", 2, 1, kLeaf);
  const auto wrong_open = wrong_inner->Open(dir, data);
  EXPECT_FALSE(wrong_open.ok());

  // A sharded container refuses a dataset of the wrong shape.
  const core::Dataset other = gen::RandomWalkDataset(kCount / 2, kLength,
                                                     7405);
  auto mismatched = bench::CreateShardedMethod("DSTree", 2, 1, kLeaf);
  const auto mismatch_open = mismatched->Open(dir, other);
  EXPECT_FALSE(mismatch_open.ok());

  // Flipping a byte in the container body surfaces as a checksum error,
  // never a crash.
  const std::string path = io::IndexFilePath(dir);
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  file.seekp(size / 2);
  char byte = 0;
  file.seekg(size / 2);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(size / 2);
  file.write(&byte, 1);
  file.close();
  auto corrupt = bench::CreateShardedMethod("DSTree", 2, 1, kLeaf);
  const auto corrupt_open = corrupt->Open(dir, data);
  EXPECT_FALSE(corrupt_open.ok());
}

}  // namespace
}  // namespace hydra
