// The batch engine beyond per-query identity (the identity oracle's batch
// axis): ADS+ splits the shared tree from concurrent queries and keeps its
// exact answers; the merged ledger is the sum of the per-query ones; and
// an empty workload or a huge k stays cheap.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "bench/registry.h"
#include "core/search_stats.h"
#include "gen/random_walk.h"
#include "gen/workload.h"

namespace hydra::bench {
namespace {

class ParallelBatchFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = gen::RandomWalkDataset(1000, 64, 913);
    workload_ = gen::CtrlWorkload(data_, 16, 914);
  }

  core::Dataset data_;
  gen::Workload workload_;
};

// Every deterministic field of the ledger (cpu_seconds is measured
// wall-clock and legitimately varies between runs).
void ExpectSameCounters(const core::SearchStats& a, const core::SearchStats& b,
                        const std::string& context) {
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    EXPECT_EQ(a.*counter.member, b.*counter.member)
        << context << " " << counter.name;
  }
}

// Bit-identical, not approximately equal: the parallel path runs the very
// same per-query code.
void ExpectSameNeighbors(const core::QueryResult& a,
                         const core::QueryResult& b,
                         const std::string& context) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << context;
  for (size_t n = 0; n < a.neighbors.size(); ++n) {
    EXPECT_EQ(a.neighbors[n].id, b.neighbors[n].id) << context;
    EXPECT_EQ(a.neighbors[n].dist_sq, b.neighbors[n].dist_sq) << context;
  }
}

TEST_F(ParallelBatchFixture, MergedLedgerIsTheSumOfPerQueryLedgers) {
  auto method = CreateMethod("VA+file");
  method->Build(data_);
  const core::BatchResult batch =
      SearchKnnBatch(method.get(), workload_, core::QuerySpec::Knn(3),
                     /*threads=*/2);
  core::SearchStats manual;
  for (const auto& q : batch.queries) manual.Add(q.stats);
  ExpectSameCounters(batch.total, manual, "merged ledger");
  EXPECT_DOUBLE_EQ(batch.total.cpu_seconds, manual.cpu_seconds);
}

TEST_F(ParallelBatchFixture, AdsSplitsConcurrentlyAndKeepsExactAnswers) {
  // ADS+ at leaf 64 refines query paths down to 8 series, so every batch
  // splits leaves of the shared tree while other queries read it.
  constexpr size_t kK = 5;
  const core::QuerySpec spec = core::QuerySpec::Knn(kK);
  auto reference = CreateMethod("ADS+", 64);
  reference->Build(data_);
  const int64_t leaves_built = reference->footprint().leaf_nodes;
  std::vector<core::QueryResult> serial;
  for (size_t q = 0; q < workload_.queries.size(); ++q) {
    serial.push_back(reference->Execute(workload_.queries[q], spec));
  }
  ASSERT_GT(reference->footprint().leaf_nodes, leaves_built);

  for (const size_t threads : {1u, 2u, 8u}) {
    auto method = CreateMethod("ADS+", 64);
    method->Build(data_);
    const core::BatchResult batch =
        SearchKnnBatch(method.get(), workload_, spec, threads);
    const std::string run = "ADS+ @" + std::to_string(threads);
    EXPECT_EQ(batch.threads_used, threads) << run;
    EXPECT_GT(method->footprint().leaf_nodes, leaves_built) << run;
    ASSERT_EQ(batch.queries.size(), serial.size()) << run;
    for (size_t q = 0; q < serial.size(); ++q) {
      const std::string context = run + " query " + std::to_string(q);
      ExpectSameNeighbors(batch.queries[q], serial[q], context);
      // Concurrent queries split in whichever order they arrive, so only a
      // one-thread batch replays the serial ledger.
      if (threads == 1) {
        ExpectSameCounters(batch.queries[q].stats, serial[q].stats, context);
      }
    }
  }
}

TEST_F(ParallelBatchFixture, EmptyWorkloadWithThreadsReturnsEmptyBatch) {
  auto method = CreateMethod("UCR-Suite");
  method->Build(data_);
  gen::Workload empty;
  const core::BatchResult batch =
      SearchKnnBatch(method.get(), empty, core::QuerySpec::Knn(1),
                     /*threads=*/4);
  EXPECT_TRUE(batch.queries.empty());
  EXPECT_EQ(batch.threads_used, 1u);  // no pool is spun up for zero queries
}

TEST_F(ParallelBatchFixture, HugeKStaysCheap) {
  // k far beyond the collection size must not pre-allocate k slots — the
  // heap only grows to min(k, candidates offered).
  auto method = CreateMethod("UCR-Suite");
  method->Build(data_);
  const core::BatchResult batch =
      SearchKnnBatch(method.get(), workload_,
                     core::QuerySpec::Knn(size_t{1} << 40), /*threads=*/2);
  for (const auto& r : batch.queries) {
    EXPECT_EQ(r.neighbors.size(), data_.size());  // everything is a match
  }
}

}  // namespace
}  // namespace hydra::bench
