// The unified Execute(QuerySpec) contract across all ten methods:
// epsilon = 0 is bit-identical to the exact spec, the
// (1+epsilon) guarantee holds against brute force, ng via Execute visits
// at most one leaf on every ng-capable tree, unsupported modes fall back
// with an honest delivered-mode report (never silently), delta = 1
// degenerates to plain epsilon, and budgets cap the work while voiding
// the guarantee.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/distance.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "gen/random_walk.h"
#include "gen/workload.h"

namespace hydra {
namespace {

constexpr size_t kCount = 2000;
constexpr size_t kLength = 128;
constexpr size_t kLeaf = 64;
constexpr size_t kK = 5;

core::Dataset TestData() { return gen::RandomWalkDataset(kCount, kLength, 7001); }
gen::Workload TestQueries() { return gen::RandWorkload(6, kLength, 7002); }

void ExpectSameAnswersAndCounters(const core::QueryResult& a,
                                  const core::QueryResult& b,
                                  const std::string& context) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << context;
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << context;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.neighbors[i].dist_sq, b.neighbors[i].dist_sq) << context;
  }
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    EXPECT_EQ(a.stats.*counter.member, b.stats.*counter.member)
        << context << " " << counter.name;
  }
}

// Adaptive methods (ADS+) refine their structure during queries, so
// sequence comparisons always run on two freshly built instances fed the
// same query order.
TEST(ExecuteApi, EpsilonZeroIsBitIdenticalToExact) {
  const auto data = TestData();
  const auto w = TestQueries();
  for (const std::string& name : bench::AllMethodNames()) {
    auto exact = bench::CreateMethod(name, kLeaf);
    auto eps_zero = bench::CreateMethod(name, kLeaf);
    exact->Build(data);
    eps_zero->Build(data);
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const core::QueryResult a =
          exact->Execute(w.queries[q], core::QuerySpec::Knn(kK));
      const core::QueryResult b = eps_zero->Execute(
          w.queries[q], core::QuerySpec::Epsilon(kK, 0.0));
      ExpectSameAnswersAndCounters(a, b,
                                   name + " q" + std::to_string(q));
      EXPECT_EQ(a.delivered(), core::QualityMode::kExact) << name;
      EXPECT_FALSE(b.budget_fired()) << name;
    }
  }
}

TEST(ExecuteApi, EpsilonGuaranteeHoldsAgainstBruteForce) {
  const auto data = TestData();
  const auto w = TestQueries();
  for (const std::string& name : bench::EpsilonCapableNames()) {
    auto method = bench::CreateMethod(name, kLeaf);
    method->Build(data);
    for (const double eps : {0.1, 1.0, 3.0}) {
      for (size_t q = 0; q < w.queries.size(); ++q) {
        const auto truth = core::BruteForceKnn(data, w.queries[q], kK);
        const double true_kth = std::sqrt(truth.back().dist_sq);
        const core::QueryResult r =
            method->Execute(w.queries[q], core::QuerySpec::Epsilon(kK, eps));
        ASSERT_EQ(r.neighbors.size(), kK)
            << name << " eps=" << eps << " q=" << q;
        EXPECT_EQ(r.delivered(), core::QualityMode::kEpsilon) << name;
        for (const auto& n : r.neighbors) {
          EXPECT_LE(std::sqrt(n.dist_sq), (1.0 + eps) * true_kth + 1e-9)
              << name << " eps=" << eps << " q=" << q;
        }
      }
    }
  }
}

// Satellite of the redesign: ng through the unified entry point still
// visits at most one leaf on every ng-capable tree method.
TEST(ExecuteApi, NgViaExecuteVisitsAtMostOneLeaf) {
  const auto data = TestData();
  const auto w = TestQueries();
  for (const std::string& name : bench::NgCapableNames()) {
    auto method = bench::CreateMethod(name, kLeaf);
    method->Build(data);
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const core::QueryResult r =
          method->Execute(w.queries[q], core::QuerySpec::NgApprox(kK));
      EXPECT_LE(r.stats.nodes_visited, 1) << name;
      EXPECT_LE(r.stats.raw_series_examined,
                static_cast<int64_t>(kLeaf) + 1)
          << name;
      EXPECT_EQ(r.delivered(), core::QualityMode::kNgApprox) << name;
    }
  }
}

// The silent-exact fallback is fixed: the six methods without an ng
// descent answer an ng request exactly and *say so* in the ledger.
TEST(ExecuteApi, UnsupportedNgFallsBackToExactAndReportsIt) {
  const auto data = TestData();
  const auto w = TestQueries();
  for (const std::string name :
       {"M-tree", "R*-tree", "VA+file", "UCR-Suite", "MASS", "Stepwise"}) {
    auto method = bench::CreateMethod(name, kLeaf);
    method->Build(data);
    const auto truth = core::BruteForceKnn(data, w.queries[0], kK);
    const core::QueryResult r =
        method->Execute(w.queries[0], core::QuerySpec::NgApprox(kK));
    EXPECT_EQ(r.delivered(), core::QualityMode::kExact) << name;
    ASSERT_EQ(r.neighbors.size(), kK) << name;
    for (size_t i = 0; i < kK; ++i) {
      EXPECT_EQ(r.neighbors[i].id, truth[i].id) << name;
    }
  }
}

TEST(ExecuteApi, DeltaEpsilonFallsBackToEpsilonBeforeExact) {
  const auto data = TestData();
  const auto w = TestQueries();
  // M-tree advertises epsilon but not delta-epsilon: a delta-epsilon
  // request is answered with the stronger epsilon guarantee, reported.
  auto mtree = bench::CreateMethod("M-tree", kLeaf);
  mtree->Build(data);
  const core::QueryResult r = mtree->Execute(
      w.queries[0], core::QuerySpec::DeltaEpsilon(kK, 0.5, 0.5));
  EXPECT_EQ(r.delivered(), core::QualityMode::kEpsilon);
  // Scans have nothing but exact.
  auto scan = bench::CreateMethod("MASS", kLeaf);
  scan->Build(data);
  const core::QueryResult s = scan->Execute(
      w.queries[0], core::QuerySpec::Epsilon(kK, 0.5));
  EXPECT_EQ(s.delivered(), core::QualityMode::kExact);
}

TEST(ExecuteApi, DeltaOneIsBitIdenticalToPlainEpsilon) {
  const auto data = TestData();
  const auto w = TestQueries();
  for (const std::string& name : bench::NgCapableNames()) {
    auto eps_method = bench::CreateMethod(name, kLeaf);
    auto delta_method = bench::CreateMethod(name, kLeaf);
    eps_method->Build(data);
    delta_method->Build(data);
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const core::QueryResult a = eps_method->Execute(
          w.queries[q], core::QuerySpec::Epsilon(kK, 0.5));
      const core::QueryResult b = delta_method->Execute(
          w.queries[q], core::QuerySpec::DeltaEpsilon(kK, 0.5, 1.0));
      ExpectSameAnswersAndCounters(a, b, name + " q" + std::to_string(q));
      EXPECT_EQ(b.delivered(), core::QualityMode::kDeltaEpsilon) << name;
    }
  }
}

TEST(ExecuteApi, SmallDeltaExaminesNoMoreThanFullDelta) {
  const auto data = TestData();
  const auto w = TestQueries();
  for (const std::string& name : bench::NgCapableNames()) {
    auto full = bench::CreateMethod(name, kLeaf);
    auto tiny = bench::CreateMethod(name, kLeaf);
    full->Build(data);
    tiny->Build(data);
    int64_t full_raw = 0;
    int64_t tiny_raw = 0;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      full_raw += full->Execute(w.queries[q],
                                core::QuerySpec::DeltaEpsilon(kK, 0.5, 1.0))
                      .stats.raw_series_examined;
      const core::QueryResult r = tiny->Execute(
          w.queries[q], core::QuerySpec::DeltaEpsilon(kK, 0.5, 0.05));
      tiny_raw += r.stats.raw_series_examined;
      // The delta rule is part of the contract, not a budget.
      EXPECT_FALSE(r.budget_fired()) << name;
      EXPECT_EQ(r.delivered(), core::QualityMode::kDeltaEpsilon) << name;
      // Answers stay valid candidates: never better than exact.
      const auto truth = core::BruteForceKnn(data, w.queries[q], 1);
      ASSERT_FALSE(r.neighbors.empty()) << name;
      EXPECT_GE(r.neighbors[0].dist_sq, truth[0].dist_sq - 1e-9) << name;
    }
    EXPECT_LE(tiny_raw, full_raw) << name;
  }
}

// Regression for a VA+file bug the review caught: early-abandoned partial
// distances must never survive into a relaxed-mode answer. Every reported
// (id, dist_sq) pair must be the real squared distance of that series,
// under every mode and under budget truncation.
TEST(ExecuteApi, ReportedDistancesAreRealDistances) {
  const auto data = TestData();
  const auto w = TestQueries();
  std::vector<core::QuerySpec> specs = {
      core::QuerySpec::Epsilon(kK, 0.5), core::QuerySpec::Epsilon(kK, 5.0),
      core::QuerySpec::DeltaEpsilon(kK, 1.0, 0.1)};
  core::QuerySpec budgeted = core::QuerySpec::Knn(kK);
  budgeted.max_raw_series = 64;
  specs.push_back(budgeted);
  for (const std::string& name : bench::EpsilonCapableNames()) {
    auto method = bench::CreateMethod(name, kLeaf);
    method->Build(data);
    for (const core::QuerySpec& spec : specs) {
      for (size_t q = 0; q < w.queries.size(); ++q) {
        const core::QueryResult r = method->Execute(w.queries[q], spec);
        for (const auto& n : r.neighbors) {
          ASSERT_LT(n.id, data.size()) << name;
          const double true_sq =
              core::SquaredEuclidean(w.queries[q], data[n.id]);
          EXPECT_NEAR(n.dist_sq, true_sq, 1e-6 * (1.0 + true_sq))
              << name << " mode=" << core::QualityModeName(spec.mode)
              << " q=" << q;
        }
      }
    }
  }
}

TEST(ExecuteApi, RawBudgetCapsWorkAndVoidsGuarantee) {
  const auto data = TestData();
  const auto w = TestQueries();
  constexpr int64_t kRawCap = 7;
  for (const std::string& name : bench::AllMethodNames()) {
    auto method = bench::CreateMethod(name, kLeaf);
    method->Build(data);
    core::QuerySpec spec = core::QuerySpec::Knn(3);
    spec.max_raw_series = kRawCap;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const core::QueryResult r = method->Execute(w.queries[q], spec);
      EXPECT_LE(r.stats.raw_series_examined, kRawCap) << name;
      if (r.budget_fired()) {
        EXPECT_EQ(r.delivered(), core::QualityMode::kNgApprox) << name;
      }
    }
  }
  // The full scans always have more than kRawCap series left, so their
  // budget must fire.
  for (const std::string name : {"UCR-Suite", "MASS"}) {
    auto method = bench::CreateMethod(name, kLeaf);
    method->Build(data);
    core::QuerySpec spec = core::QuerySpec::Knn(3);
    spec.max_raw_series = kRawCap;
    const core::QueryResult r = method->Execute(w.queries[0], spec);
    EXPECT_TRUE(r.budget_fired()) << name;
    EXPECT_EQ(r.stats.raw_series_examined, kRawCap) << name;
  }
}

TEST(ExecuteApi, LeafBudgetCapsTreeTraversal) {
  const auto data = TestData();
  const auto w = TestQueries();
  for (const std::string name :
       {"DSTree", "iSAX2+", "SFA", "M-tree", "R*-tree"}) {
    auto capped = bench::CreateMethod(name, kLeaf);
    auto free_run = bench::CreateMethod(name, kLeaf);
    capped->Build(data);
    free_run->Build(data);
    core::QuerySpec spec = core::QuerySpec::Knn(3);
    spec.max_visited_leaves = 2;
    int64_t capped_raw = 0;
    int64_t free_raw = 0;
    bool fired_any = false;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const core::QueryResult r = capped->Execute(w.queries[q], spec);
      capped_raw += r.stats.raw_series_examined;
      fired_any = fired_any || r.budget_fired();
      free_raw += free_run->Execute(w.queries[q], core::QuerySpec::Knn(3))
                      .stats.raw_series_examined;
    }
    // The capped traversal is a prefix of the free one.
    EXPECT_LE(capped_raw, free_raw) << name;
    // Exact search over 2000 random-walk series needs more than two
    // leaves on some query, so the budget must have fired (and been
    // reported) at least once.
    EXPECT_TRUE(fired_any) << name;
  }
}

TEST(ExecuteApi, RangeThroughExecuteIsExactAndReproducible) {
  const auto data = TestData();
  const auto w = TestQueries();
  auto method = bench::CreateMethod("DSTree", kLeaf);
  auto again = bench::CreateMethod("DSTree", kLeaf);
  method->Build(data);
  again->Build(data);
  const double radius = 10.0;
  const core::QueryResult first =
      method->Execute(w.queries[0], core::QuerySpec::Range(radius));
  const core::QueryResult second =
      again->Execute(w.queries[0], core::QuerySpec::Range(radius));
  ASSERT_EQ(first.neighbors.size(), second.neighbors.size());
  for (size_t i = 0; i < first.neighbors.size(); ++i) {
    EXPECT_EQ(first.neighbors[i].id, second.neighbors[i].id);
    EXPECT_EQ(first.neighbors[i].dist_sq, second.neighbors[i].dist_sq);
  }
  // Every series within distance r, and nothing else (Definition 2).
  size_t within = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (core::SquaredEuclidean(w.queries[0], data[i]) <= radius * radius) {
      ++within;
    }
  }
  EXPECT_EQ(first.neighbors.size(), within);
  EXPECT_EQ(second.delivered(), core::QualityMode::kExact);
}

}  // namespace
}  // namespace hydra
