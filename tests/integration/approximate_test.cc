// ng-approximate search (Definition 7): one-path traversal, at most one
// leaf. Tests the contract (valid candidates, never better than exact, far
// cheaper) and its effectiveness on easy queries (the bsf it seeds for
// exact search is what makes SIMS and the tree searches fast).
#include <cmath>
#include <initializer_list>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/distance.h"
#include "core/method.h"
#include "core/search_stats.h"
#include "gen/random_walk.h"
#include "gen/workload.h"

namespace hydra {
namespace {

class ApproximateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ApproximateTest, ReturnsValidCandidates) {
  const std::string method_name = GetParam();
  const auto data = gen::RandomWalkDataset(3000, 128, 6001);
  const auto w = gen::RandWorkload(8, 128, 6002);
  auto method = bench::CreateMethod(method_name, 64);
  method->Build(data);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto exact = core::BruteForceKnn(data, w.queries[q], 1);
    core::QueryResult approx =
        method->Execute(w.queries[q], core::QuerySpec::NgApprox(1));
    ASSERT_FALSE(approx.neighbors.empty()) << method_name;
    // The reported distance must be a real distance of a real series.
    const auto id = approx.neighbors[0].id;
    ASSERT_LT(id, data.size());
    EXPECT_NEAR(approx.neighbors[0].dist_sq,
                core::SquaredEuclidean(w.queries[q], data[id]),
                1e-5 * std::max(1.0, approx.neighbors[0].dist_sq));
    // Approximate can never beat exact.
    EXPECT_GE(approx.neighbors[0].dist_sq, exact[0].dist_sq - 1e-9);
  }
}

TEST_P(ApproximateTest, VisitsAtMostOneLeaf) {
  const std::string method_name = GetParam();
  const auto data = gen::RandomWalkDataset(3000, 128, 6003);
  const auto w = gen::RandWorkload(5, 128, 6004);
  auto method = bench::CreateMethod(method_name, 64);
  method->Build(data);
  for (size_t q = 0; q < w.queries.size(); ++q) {
    core::QueryResult approx =
        method->Execute(w.queries[q], core::QuerySpec::NgApprox(1));
    EXPECT_LE(approx.stats.nodes_visited, 1) << method_name;
    // At most one leaf's worth of raw series examined.
    EXPECT_LE(approx.stats.raw_series_examined, 64 + 1) << method_name;
  }
}

TEST_P(ApproximateTest, MuchCheaperThanExact) {
  const std::string method_name = GetParam();
  const auto data = gen::RandomWalkDataset(5000, 128, 6005);
  const auto w = gen::RandWorkload(5, 128, 6006);
  auto method = bench::CreateMethod(method_name, 64);
  method->Build(data);
  int64_t approx_examined = 0;
  int64_t exact_examined = 0;
  int64_t approx_bytes = 0;
  int64_t exact_bytes = 0;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto approx =
        method->Execute(w.queries[q], core::QuerySpec::NgApprox(1)).stats;
    const auto exact =
        method->Execute(w.queries[q], core::QuerySpec::Knn(1)).stats;
    approx_examined += approx.raw_series_examined;
    exact_examined += exact.raw_series_examined;
    approx_bytes += approx.bytes_read;
    exact_bytes += exact.bytes_read;
  }
  // Every leaf an exact search visits is still read whole (the modeled
  // raw I/O)...
  EXPECT_LT(approx_bytes * 2, exact_bytes) << method_name;
  // ...but the trees skip leaf members on their in-memory summaries past
  // the home leaf, so their raw examinations can fall below twice ng's one
  // unfiltered home leaf: DSTree's do here (383 exact vs 213 ng over the
  // five queries), so only the other methods compare raw counts.
  if (method_name != "DSTree") {
    EXPECT_LT(approx_examined * 2, exact_examined) << method_name;
  }
}

TEST_P(ApproximateTest, GoodOnEasyQueries) {
  // For a near-duplicate query the one-path descent should land on (or
  // very near) the true NN: the heuristic the literature calls
  // "approximate search" works because similar series share summaries.
  const std::string method_name = GetParam();
  const auto data = gen::RandomWalkDataset(3000, 128, 6007);
  const auto easy = gen::CtrlWorkload(data, 10, 6008, 0.01, 0.05);
  auto method = bench::CreateMethod(method_name, 64);
  method->Build(data);
  size_t close_hits = 0;
  for (size_t q = 0; q < easy.queries.size(); ++q) {
    const auto exact = core::BruteForceKnn(data, easy.queries[q], 1);
    const auto approx =
        method->Execute(easy.queries[q], core::QuerySpec::NgApprox(1));
    const double ratio =
        std::sqrt(approx.neighbors[0].dist_sq) /
        std::max(1e-9, std::sqrt(exact[0].dist_sq));
    if (ratio < 2.0) ++close_hits;
  }
  // Most easy queries should find a near-optimal answer in one leaf.
  EXPECT_GE(close_hits, 6u) << method_name;
}

INSTANTIATE_TEST_SUITE_P(NgApproximateMethods, ApproximateTest,
                         ::testing::Values("ADS+", "DSTree", "iSAX2+",
                                           "SFA"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (!std::isalnum(
                                     static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ApproximateDefault, ScansFallBackToExact) {
  const auto data = gen::RandomWalkDataset(500, 64, 6009);
  const auto w = gen::RandWorkload(2, 64, 6010);
  auto scan = bench::CreateMethod("UCR-Suite");
  scan->Build(data);
  const auto exact = scan->Execute(w.queries[0], core::QuerySpec::Knn(3));
  const auto approx = scan->Execute(w.queries[0], core::QuerySpec::NgApprox(3));
  ASSERT_EQ(exact.neighbors.size(), approx.neighbors.size());
  for (size_t i = 0; i < exact.neighbors.size(); ++i) {
    EXPECT_EQ(exact.neighbors[i].id, approx.neighbors[i].id);
  }
}

// An ng query's ledger is its own: ADS+ reads the home leaf through a
// cursor that lives for that query alone, so the first read is one seek
// whatever the query before it read last. On this collection series 0's
// home leaf ends right before series 1's begins, so a cursor kept from one
// query to the next would charge series 1's first read as sequential.
TEST(ApproximateAdsPlus, NgLedgerDoesNotDependOnThePreviousQuery) {
  const auto data = gen::RandomWalkDataset(1000, 64, 4242);
  const core::QuerySpec ng = core::QuerySpec::NgApprox(5);
  const auto ledger = [&](std::initializer_list<size_t> earlier,
                          size_t query) {
    auto method = bench::CreateMethod("ADS+", 32);
    method->Build(data);
    for (const size_t q : earlier) method->Execute(data[q], ng);
    return method->Execute(data[query], ng).stats;
  };
  for (const auto& [first, second] : {std::pair{0, 1}, std::pair{1, 0}}) {
    const core::SearchStats alone = ledger({}, second);
    const core::SearchStats after = ledger({size_t(first)}, second);
    EXPECT_GT(alone.random_seeks, 0) << second;
    for (const core::LedgerCounter& counter : core::kLedgerCounters) {
      EXPECT_EQ(alone.*counter.member, after.*counter.member)
          << "series " << second << " after series " << first << ": "
          << counter.name;
    }
  }
}

}  // namespace
}  // namespace hydra
