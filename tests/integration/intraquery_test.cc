// The intra-query parallelism contract: every method splits one query's
// work over query_threads workers — the trees through core::TreeSearch,
// the filter-and-refine methods through core::RefineCandidates, the scans
// through core::ParallelScan — and exact k-NN and range answers are
// bit-identical to the serial search at every worker count, in RAM and
// over a buffer pool far smaller than the file; order-dependent
// disciplines (epsilon, delta, explicit budgets) are kept serial by
// Execute's gate, so their answers and their work ledgers never move with
// --query-threads; every method, sharded or not, accepts more than one
// worker; and query_threads composes with the sharded fan-out (shards x
// workers pruning against one cross-shard bound).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "gen/random_walk.h"
#include "gen/workload.h"
#include "io/series_file.h"
#include "storage/backend.h"

namespace hydra {
namespace {

constexpr size_t kCount = 400;
constexpr size_t kLength = 64;
constexpr size_t kLeaf = 64;
constexpr size_t kK = 5;
constexpr double kRadius = 8.0;

const size_t kQueryThreads[] = {1, 2, 4, 8};

core::Dataset TestData() {
  return gen::RandomWalkDataset(kCount, kLength, 6801);
}
gen::Workload TestQueries() { return gen::RandWorkload(4, kLength, 6802); }

void ExpectSameAnswers(const std::vector<core::Neighbor>& got,
                       const std::vector<core::Neighbor>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    EXPECT_EQ(got[i].dist_sq, want[i].dist_sq) << context << " rank " << i;
  }
}

/// Work-ledger equality for the gated (serial-kept) disciplines: every
/// counter must match because the search is the *same* loop, not merely
/// an equivalent one. cpu_seconds is measured wall-clock and exempt.
void ExpectSameWork(const core::SearchStats& got,
                    const core::SearchStats& want,
                    const std::string& context) {
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    EXPECT_EQ(got.*counter.member, want.*counter.member)
        << context << " " << counter.name;
  }
  EXPECT_EQ(got.answer_mode_delivered, want.answer_mode_delivered)
      << context;
  EXPECT_EQ(got.budget_exhausted, want.budget_exhausted) << context;
}

/// The test collection twice: in RAM, and mapped from a file behind a
/// buffer pool whose budget is under a third of it: every wide query reads
/// runs, and at eight workers half of them get no run scratch on loan and
/// read one series at a time.
class IntraQueryBackends : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/hydra_intraquery.bin";
    ASSERT_TRUE(io::WriteSeriesFile(path_, ram_).ok());
    storage::StorageOptions options;
    options.backend = storage::StorageBackend::kMmap;
    options.pool.budget_bytes = 32 << 10;
    options.pool.page_bytes = 8 << 10;
    auto opened = storage::StorageHandle::Open(path_, "intraquery", options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    mmap_ = std::move(opened).value();
    ASSERT_EQ(mmap_.backend(), storage::StorageBackend::kMmap);
    ASSERT_LT(options.pool.budget_bytes,
              kCount * kLength * sizeof(core::Value) / 3);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Both backends, labeled.
  std::vector<std::pair<std::string, const core::Dataset*>> Backends()
      const {
    return {{"ram", &ram_}, {"mmap", &mmap_.dataset()}};
  }

  const core::Dataset ram_ = TestData();
  const gen::Workload workload_ = TestQueries();

 private:
  std::string path_;
  storage::StorageHandle mmap_;
};

/// The headline guarantee: exact k-NN split over query_threads workers
/// matches the serial RAM search bit for bit at every worker count, on
/// both backends. Fresh index per cell — ADS+ adapts its tree during
/// queries, and the contract must hold from the same starting state the
/// serial reference saw.
TEST_F(IntraQueryBackends, ExactKnnMatchesSerialAtEveryWidth) {
  const gen::Workload& workload = workload_;
  for (const std::string& name : bench::AllMethodNames()) {
    auto reference = bench::CreateMethod(name, kLeaf);
    reference->Build(ram_);
    std::vector<std::vector<core::Neighbor>> knn_ref;
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      knn_ref.push_back(
          reference->Execute(workload.queries[q], core::QuerySpec::Knn(kK))
              .neighbors);
    }
    for (const auto& [backend, data] : Backends()) {
      for (const size_t query_threads : kQueryThreads) {
        auto method = bench::CreateMethod(name, kLeaf);
        method->Build(*data);
        core::QuerySpec spec = core::QuerySpec::Knn(kK);
        spec.query_threads = query_threads;
        const std::string context = name + " " + backend +
                                    " query_threads=" +
                                    std::to_string(query_threads);
        for (size_t q = 0; q < workload.queries.size(); ++q) {
          const core::QueryResult r =
              method->Execute(workload.queries[q], spec);
          ExpectSameAnswers(r.neighbors, knn_ref[q],
                            context + " knn query " + std::to_string(q));
          EXPECT_EQ(r.delivered(), core::QualityMode::kExact) << context;
          EXPECT_FALSE(r.budget_fired()) << context;
        }
      }
    }
  }
}

/// Range twin: the fixed r^2 bound makes the whole search visit-order
/// independent, so not only the matches but the pruning-work counters
/// (lower bounds charged, nodes visited, raw refinements) must match the
/// serial loop exactly at any width, on both backends.
TEST_F(IntraQueryBackends, RangeMatchesSerialAtEveryWidth) {
  const gen::Workload& workload = workload_;
  for (const std::string& name : bench::AllMethodNames()) {
    auto reference = bench::CreateMethod(name, kLeaf);
    reference->Build(ram_);
    std::vector<core::QueryResult> range_ref;
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      range_ref.push_back(reference->Execute(workload.queries[q],
                                             core::QuerySpec::Range(kRadius)));
    }
    for (const auto& [backend, data] : Backends()) {
      for (const size_t query_threads : kQueryThreads) {
        auto method = bench::CreateMethod(name, kLeaf);
        method->Build(*data);
        core::QuerySpec spec = core::QuerySpec::Range(kRadius);
        spec.query_threads = query_threads;
        const std::string context = name + " " + backend +
                                    " query_threads=" +
                                    std::to_string(query_threads);
        for (size_t q = 0; q < workload.queries.size(); ++q) {
          const core::QueryResult r =
              method->Execute(workload.queries[q], spec);
          const core::SearchStats& want = range_ref[q].stats;
          const std::string at = context + " query " + std::to_string(q);
          ExpectSameAnswers(r.neighbors, range_ref[q].neighbors, at);
          EXPECT_EQ(r.stats.lower_bound_computations,
                    want.lower_bound_computations)
              << at;
          EXPECT_EQ(r.stats.nodes_visited, want.nodes_visited) << at;
          EXPECT_EQ(r.stats.distance_computations, want.distance_computations)
              << at;
          EXPECT_EQ(r.stats.raw_series_examined, want.raw_series_examined)
              << at;
        }
      }
    }
  }
}

/// Order-dependent disciplines stay serial no matter what query_threads
/// asks for: epsilon answers (the shrinking bound is visit-order
/// dependent) and budget-truncated answers (which candidates survive
/// depends on visit order) must be bit-identical to the query_threads=1
/// run — including the full work ledger, because the gate means the same
/// serial loop ran, not a lucky-equivalent parallel one.
TEST(IntraQueryGating, EpsilonAndBudgetedRunsAreUnmovedByQueryThreads) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  for (const std::string& name : bench::AllMethodNames()) {
    const core::MethodTraits traits =
        bench::CreateMethod(name, kLeaf)->traits();

    if (traits.supports_epsilon) {
      auto serial = bench::CreateMethod(name, kLeaf);
      serial->Build(data);
      auto wide = bench::CreateMethod(name, kLeaf);
      wide->Build(data);
      core::QuerySpec spec = core::QuerySpec::Epsilon(kK, 0.5);
      core::QuerySpec wide_spec = spec;
      wide_spec.query_threads = 8;
      for (size_t q = 0; q < workload.queries.size(); ++q) {
        const core::QueryResult want =
            serial->Execute(workload.queries[q], spec);
        const core::QueryResult got =
            wide->Execute(workload.queries[q], wide_spec);
        const std::string context =
            name + " epsilon query " + std::to_string(q);
        ExpectSameAnswers(got.neighbors, want.neighbors, context);
        ExpectSameWork(got.stats, want.stats, context);
        EXPECT_EQ(got.delivered(), core::QualityMode::kEpsilon) << context;
      }
    }

    auto serial = bench::CreateMethod(name, kLeaf);
    serial->Build(data);
    auto wide = bench::CreateMethod(name, kLeaf);
    wide->Build(data);
    core::QuerySpec spec = core::QuerySpec::Knn(kK);
    spec.max_raw_series = 50;
    core::QuerySpec wide_spec = spec;
    wide_spec.query_threads = 8;
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      const core::QueryResult want =
          serial->Execute(workload.queries[q], spec);
      const core::QueryResult got =
          wide->Execute(workload.queries[q], wide_spec);
      const std::string context =
          name + " budgeted query " + std::to_string(q);
      ExpectSameAnswers(got.neighbors, want.neighbors, context);
      ExpectSameWork(got.stats, want.stats, context);
      EXPECT_LE(got.stats.raw_series_examined, 50) << context;
    }
  }
}

/// No method refuses width: every one, and every sharded container over a
/// shardable one, answers an exact k-NN and a range query at
/// query_threads 4 exactly as at width 1 (MethodTraits has no
/// intra-query capability flag to gate it).
TEST(IntraQueryAcceptance, EveryMethodShardedOrNotAcceptsQueryThreads) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  const core::SeriesView query = workload.queries[0];
  core::QuerySpec knn = core::QuerySpec::Knn(kK);
  core::QuerySpec range = core::QuerySpec::Range(kRadius);
  core::QuerySpec wide_knn = knn;
  core::QuerySpec wide_range = range;
  wide_knn.query_threads = wide_range.query_threads = 4;
  const auto check = [&](core::SearchMethod* method,
                         const std::string& context) {
    method->Build(data);
    ExpectSameAnswers(method->Execute(query, wide_knn).neighbors,
                      method->Execute(query, knn).neighbors,
                      context + " knn");
    ExpectSameAnswers(method->Execute(query, wide_range).neighbors,
                      method->Execute(query, range).neighbors,
                      context + " range");
  };
  for (const std::string& name : bench::AllMethodNames()) {
    check(bench::CreateMethod(name, kLeaf).get(), name);
  }
  for (const std::string& name : bench::ShardableNames()) {
    check(bench::CreateShardedMethod(name, 2, 1, kLeaf).get(),
          name + " shards=2");
  }
}

/// Composition: shards x workers. Every shard's workers attach to the one
/// cross-shard bound, and the merged answer still matches the unsharded
/// serial traversal bit for bit.
TEST(IntraQueryComposition, ShardsTimesWorkersMatchesUnshardedSerial) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  for (const std::string& name : bench::ShardableNames()) {
    auto reference = bench::CreateMethod(name, kLeaf);
    reference->Build(data);
    std::vector<std::vector<core::Neighbor>> knn_ref;
    std::vector<std::vector<core::Neighbor>> range_ref;
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      knn_ref.push_back(
          reference->Execute(workload.queries[q], core::QuerySpec::Knn(kK))
              .neighbors);
      range_ref.push_back(
          reference
              ->Execute(workload.queries[q], core::QuerySpec::Range(kRadius))
              .neighbors);
    }
    for (const size_t query_threads : kQueryThreads) {
      auto sharded = bench::CreateShardedMethod(name, 3, 2, kLeaf);
      sharded->Build(data);
      const std::string context = name + " shards=3 query_threads=" +
                                  std::to_string(query_threads);
      core::QuerySpec knn_spec = core::QuerySpec::Knn(kK);
      knn_spec.query_threads = query_threads;
      core::QuerySpec range_spec = core::QuerySpec::Range(kRadius);
      range_spec.query_threads = query_threads;
      for (size_t q = 0; q < workload.queries.size(); ++q) {
        ExpectSameAnswers(
            sharded->Execute(workload.queries[q], knn_spec).neighbors,
            knn_ref[q], context + " knn query " + std::to_string(q));
        ExpectSameAnswers(
            sharded->Execute(workload.queries[q], range_spec).neighbors,
            range_ref[q], context + " range query " + std::to_string(q));
      }
    }
  }
}

}  // namespace
}  // namespace hydra
