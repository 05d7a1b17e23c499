// The intra-query parallelism contract: for every method whose traversal
// runs on the shared engine (core::TreeSearch / ParallelScan),
// exact k-NN and range answers are bit-identical to the serial traversal
// at every worker count; order-dependent disciplines (epsilon, delta,
// explicit budgets) are kept serial by Execute's gate, so their answers
// and their work ledgers never move with --query-threads; traits refuse
// honestly; and query_threads composes with the sharded fan-out (shards x
// workers pruning against one cross-shard bound).
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "gen/random_walk.h"
#include "gen/workload.h"

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
/// counter must match because the traversal is the *same* loop, not merely
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

/// The headline guarantee: exact k-NN through the cooperative traversal
/// matches the serial traversal bit for bit at every worker count. Fresh
/// index per cell — ADS+ adapts its tree during queries, and the contract
/// must hold from the same starting state the serial reference saw.
TEST(IntraQueryBitIdentity, ExactKnnMatchesSerialAtEveryWidth) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  for (const std::string& name : bench::IntraQueryCapableNames()) {
    auto reference = bench::CreateMethod(name, kLeaf);
    reference->Build(data);
    std::vector<std::vector<core::Neighbor>> knn_ref;
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      knn_ref.push_back(
          reference->Execute(workload.queries[q], core::QuerySpec::Knn(kK))
              .neighbors);
    }
    for (const size_t query_threads : kQueryThreads) {
      auto method = bench::CreateMethod(name, kLeaf);
      method->Build(data);
      core::QuerySpec spec = core::QuerySpec::Knn(kK);
      spec.query_threads = query_threads;
      const std::string context =
          name + " query_threads=" + std::to_string(query_threads);
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

/// Range twin: the fixed r^2 bound makes the whole traversal visit-order
/// independent, so not only the matches but the pruning-work counters
/// (lower bounds charged, nodes visited, raw refinements) must match the
/// serial loop exactly at any width.
TEST(IntraQueryBitIdentity, RangeMatchesSerialAtEveryWidth) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  for (const std::string& name : bench::IntraQueryCapableNames()) {
    auto reference = bench::CreateMethod(name, kLeaf);
    reference->Build(data);
    std::vector<core::QueryResult> range_ref;
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      range_ref.push_back(reference->Execute(workload.queries[q],
                                             core::QuerySpec::Range(kRadius)));
    }
    for (const size_t query_threads : kQueryThreads) {
      auto method = bench::CreateMethod(name, kLeaf);
      method->Build(data);
      core::QuerySpec spec = core::QuerySpec::Range(kRadius);
      spec.query_threads = query_threads;
      const std::string context =
          name + " query_threads=" + std::to_string(query_threads);
      for (size_t q = 0; q < workload.queries.size(); ++q) {
        const core::QueryResult r =
            method->Execute(workload.queries[q], spec);
        ExpectSameAnswers(r.neighbors, range_ref[q].neighbors,
                          context + " range query " + std::to_string(q));
        EXPECT_EQ(r.stats.lower_bound_computations,
                  range_ref[q].stats.lower_bound_computations)
            << context << " query " << q;
        EXPECT_EQ(r.stats.nodes_visited, range_ref[q].stats.nodes_visited)
            << context << " query " << q;
        EXPECT_EQ(r.stats.distance_computations,
                  range_ref[q].stats.distance_computations)
            << context << " query " << q;
        EXPECT_EQ(r.stats.raw_series_examined,
                  range_ref[q].stats.raw_series_examined)
            << context << " query " << q;
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
  for (const std::string& name : bench::IntraQueryCapableNames()) {
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

/// Traits are honest on both sides: the five tree indexes (on
/// core::TreeSearch) and ADS+ (on ParallelScan) advertise the capability,
/// the flat scans (UCR-Suite, MASS, Stepwise, VA+file) explain their
/// refusal, and
/// the sharded container mirrors its component (so `--shards` composed
/// with `--query-threads` is accepted or refused for the right reason).
TEST(IntraQueryTraits, SixMethodsAdvertiseOthersRefuseWithReasons) {
  const auto capable = bench::IntraQueryCapableNames();
  EXPECT_EQ(capable.size(), 6u);
  for (const std::string& name : bench::AllMethodNames()) {
    const core::MethodTraits t = bench::CreateMethod(name)->traits();
    const bool expected =
        std::find(capable.begin(), capable.end(), name) != capable.end();
    EXPECT_EQ(t.intra_query_parallel, expected) << name;
    if (!t.intra_query_parallel) {
      EXPECT_FALSE(t.intra_query_reason.empty()) << name;
    }
  }
  for (const std::string& name : bench::ShardableNames()) {
    const core::MethodTraits inner = bench::CreateMethod(name)->traits();
    const core::MethodTraits outer =
        bench::CreateShardedMethod(name, 2, 1)->traits();
    EXPECT_EQ(outer.intra_query_parallel, inner.intra_query_parallel)
        << name;
    EXPECT_EQ(outer.intra_query_reason, inner.intra_query_reason) << name;
  }
}

/// Composition: shards x workers. Every shard's workers attach to the one
/// cross-shard bound, and the merged answer still matches the unsharded
/// serial traversal bit for bit.
TEST(IntraQueryComposition, ShardsTimesWorkersMatchesUnshardedSerial) {
  const core::Dataset data = TestData();
  const gen::Workload workload = TestQueries();
  for (const std::string& name : bench::IntraQueryCapableNames()) {
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
