// The batch engine's core promise: answering a workload concurrently over a
// shared index returns bit-identical results to the serial path — same
// neighbor offsets, same squared distances, same per-query order, and the
// same deterministic ledger counters — at any thread count. ADS+, whose
// queries split the shared tree, keeps its exact answers bit-identical;
// its ledger at more than one thread depends on which query split first.
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

TEST_F(ParallelBatchFixture, BatchIsBitIdenticalToSerialAt1And2And8Threads) {
  constexpr size_t kK = 5;
  for (const std::string& name : AllMethodNames()) {
    // Every run starts from its own fresh build, so an adaptive method
    // (ADS+) starts each one from the same tree.
    const auto built = [&] {
      auto method = CreateMethod(name, 64);
      method->Build(data_);
      return method;
    };

    // Serial reference: plain Execute in workload order.
    std::vector<core::QueryResult> serial;
    {
      auto method = built();
      for (size_t q = 0; q < workload_.queries.size(); ++q) {
        serial.push_back(
            method->Execute(workload_.queries[q], core::QuerySpec::Knn(kK)));
      }
    }

    for (const size_t threads : {1u, 2u, 8u}) {
      auto method = built();
      const core::BatchResult batch =
          SearchKnnBatch(method.get(), workload_, core::QuerySpec::Knn(kK),
                         threads);
      const std::string run = name + " @" + std::to_string(threads);
      EXPECT_EQ(batch.threads_used, threads) << run;
      ASSERT_EQ(batch.queries.size(), serial.size()) << run;
      for (size_t q = 0; q < serial.size(); ++q) {
        const std::string context = run + " query " + std::to_string(q);
        ExpectSameNeighbors(batch.queries[q], serial[q], context);
        if (name != "ADS+" || threads == 1) {
          ExpectSameCounters(batch.queries[q].stats, serial[q].stats,
                             context);
        }
      }
    }
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

TEST_F(ParallelBatchFixture, SpecBatchIsDeterministicAt1And2And8Threads) {
  // Batch execution through a QuerySpec (epsilon quality plus a raw-series
  // budget) honors the spec deterministically at any thread count and any
  // requested query width: same answers, same counters, same delivered
  // guarantees as the serial Execute loop.
  core::QuerySpec spec = core::QuerySpec::Epsilon(/*k=*/5, /*epsilon=*/0.5);
  spec.max_raw_series = 400;
  for (const std::string name : {"DSTree", "iSAX2+", "SFA", "VA+file"}) {
    auto method = CreateMethod(name, 64);
    method->Build(data_);

    std::vector<core::QueryResult> serial;
    for (size_t q = 0; q < workload_.queries.size(); ++q) {
      serial.push_back(method->Execute(workload_.queries[q], spec));
    }

    for (const size_t threads : {1u, 2u, 8u})
    for (const size_t query_threads : {1u, 4u}) {
      spec.query_threads = query_threads;
      const core::BatchResult batch =
          SearchKnnBatch(method.get(), workload_, spec, threads);
      const std::string run = name + " spec @" + std::to_string(threads) +
                              "x" + std::to_string(query_threads);
      ASSERT_EQ(batch.queries.size(), serial.size()) << run;
      for (size_t q = 0; q < serial.size(); ++q) {
        const std::string context = run + " query " + std::to_string(q);
        ASSERT_EQ(batch.queries[q].neighbors.size(),
                  serial[q].neighbors.size())
            << context;
        for (size_t n = 0; n < serial[q].neighbors.size(); ++n) {
          EXPECT_EQ(batch.queries[q].neighbors[n].id,
                    serial[q].neighbors[n].id)
              << context;
          EXPECT_EQ(batch.queries[q].neighbors[n].dist_sq,
                    serial[q].neighbors[n].dist_sq)
              << context;
        }
        ExpectSameCounters(batch.queries[q].stats, serial[q].stats, context);
        EXPECT_EQ(batch.queries[q].delivered(), serial[q].delivered())
            << context;
        EXPECT_EQ(batch.queries[q].budget_fired(), serial[q].budget_fired())
            << context;
      }
      // The merged ledger reports the weakest guarantee of the batch.
      core::SearchStats manual;
      for (const auto& r : batch.queries) manual.Add(r.stats);
      EXPECT_EQ(batch.total.answer_mode_delivered,
                manual.answer_mode_delivered)
          << run;
      EXPECT_EQ(batch.total.budget_exhausted, manual.budget_exhausted) << run;
    }
  }
}

TEST_F(ParallelBatchFixture, ExactBatchNestsQueryWorkersOnOnePool) {
  // Exact plans go wide inside each query, so every batch worker forks its
  // query's scan on the same process pool. Answers stay bit-identical to
  // the serial loop (ADS+'s exact ones too); the work counters depend on
  // bound-arrival timing.
  core::QuerySpec spec = core::QuerySpec::Knn(5);
  for (const std::string& name : AllMethodNames()) {
    auto method = CreateMethod(name, 64);
    method->Build(data_);
    std::vector<core::QueryResult> serial;
    for (size_t q = 0; q < workload_.queries.size(); ++q) {
      serial.push_back(method->Execute(workload_.queries[q], spec));
    }
    spec.query_threads = 4;
    for (const size_t threads : {2u, 8u}) {
      const core::BatchResult batch =
          SearchKnnBatch(method.get(), workload_, spec, threads);
      ASSERT_EQ(batch.queries.size(), serial.size()) << name;
      for (size_t q = 0; q < serial.size(); ++q) {
        ExpectSameNeighbors(batch.queries[q], serial[q],
                            name + " @" + std::to_string(threads) +
                                "x4 query " + std::to_string(q));
      }
    }
    spec.query_threads = 1;
  }
}

TEST_F(ParallelBatchFixture, RunMethodParallelMatchesRunMethod) {
  const auto hdd = io::DiskModel::ScaledHdd();
  for (const std::string name : {"UCR-Suite", "DSTree"}) {
    auto serial_method = CreateMethod(name, 64);
    auto parallel_method = CreateMethod(name, 64);
    const MethodRun serial = RunMethod(serial_method.get(), data_, workload_);
    const MethodRun parallel = RunMethodParallel(parallel_method.get(), data_,
                                                 workload_, /*k=*/1,
                                                 /*threads=*/4);
    ASSERT_EQ(parallel.queries.size(), serial.queries.size()) << name;
    ASSERT_EQ(parallel.nn_dists_sq.size(), serial.nn_dists_sq.size()) << name;
    for (size_t q = 0; q < serial.queries.size(); ++q) {
      EXPECT_EQ(parallel.nn_dists_sq[q], serial.nn_dists_sq[q]) << name;
      ExpectSameCounters(parallel.queries[q], serial.queries[q],
                         name + " query " + std::to_string(q));
    }
    // Every harness measure built on deterministic counters agrees too.
    EXPECT_DOUBLE_EQ(MeanPruningRatio(parallel, data_.size()),
                     MeanPruningRatio(serial, data_.size()))
        << name;
    EXPECT_GT(Exact100Seconds(parallel, hdd), 0.0) << name;
  }
}

}  // namespace
}  // namespace hydra::bench
