// QuerySpec validation and KnnPlan derivation: Execute must CHECK-abort on
// malformed specs (library misuse; the CLI validates user input first) and
// the plan's caps must implement the delta leaf-visit rule exactly.
#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "core/query_spec.h"
#include "gen/random_walk.h"
#include "gen/workload.h"

namespace hydra::core {
namespace {

class SpecDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = gen::RandomWalkDataset(200, 64, 111);
    workload_ = gen::RandWorkload(1, 64, 112);
    method_ = bench::CreateMethod("DSTree", 32);
    method_->Build(data_);
  }

  QueryResult Run(const QuerySpec& spec) {
    return method_->Execute(workload_.queries[0], spec);
  }

  Dataset data_;
  gen::Workload workload_;
  std::unique_ptr<SearchMethod> method_;
};

TEST_F(SpecDeathTest, ZeroKAborts) {
  EXPECT_DEATH(Run(QuerySpec::Knn(0)), "k >= 1");
}

TEST_F(SpecDeathTest, NegativeRadiusAborts) {
  EXPECT_DEATH(Run(QuerySpec::Range(-1.0)), "non-negative");
}

TEST_F(SpecDeathTest, NegativeEpsilonAborts) {
  EXPECT_DEATH(Run(QuerySpec::Epsilon(3, -0.5)), "epsilon");
}

TEST_F(SpecDeathTest, DeltaOutsideUnitIntervalAborts) {
  EXPECT_DEATH(Run(QuerySpec::DeltaEpsilon(3, 1.0, 0.0)), "delta");
  EXPECT_DEATH(Run(QuerySpec::DeltaEpsilon(3, 1.0, 1.5)), "delta");
}

TEST_F(SpecDeathTest, ApproximateRangeAborts) {
  QuerySpec spec = QuerySpec::Range(5.0);
  spec.mode = QualityMode::kEpsilon;
  spec.epsilon = 0.5;
  EXPECT_DEATH(Run(spec), "exact");
}

TEST_F(SpecDeathTest, BudgetedRangeAborts) {
  QuerySpec spec = QuerySpec::Range(5.0);
  spec.max_raw_series = 10;
  EXPECT_DEATH(Run(spec), "budget");
}

TEST_F(SpecDeathTest, BudgetedNgAborts) {
  QuerySpec spec = QuerySpec::NgApprox(3);
  spec.max_visited_leaves = 2;
  EXPECT_DEATH(Run(spec), "ng");
}

TEST_F(SpecDeathTest, NegativeBudgetAborts) {
  QuerySpec spec = QuerySpec::Knn(3);
  spec.max_raw_series = -1;
  EXPECT_DEATH(Run(spec), "budget");
}

TEST_F(SpecDeathTest, LeafBudgetOnLeaflessMethodAborts) {
  // UCR-Suite has no leaf-visit unit, so a leaf budget could never fire —
  // Execute refuses it instead of silently ignoring it.
  auto scan = bench::CreateMethod("UCR-Suite");
  scan->Build(data_);
  QuerySpec spec = QuerySpec::Knn(3);
  spec.max_visited_leaves = 2;
  EXPECT_DEATH(scan->Execute(workload_.queries[0], spec),
               "leaf-visit unit");
  // The same spec is legal on a method whose traversal counts leaves.
  EXPECT_EQ(Run(spec).neighbors.size(), 3u);
}

TEST(KnnPlan, DefaultPlanHasNoEffect) {
  const KnnPlan plan;
  EXPECT_DOUBLE_EQ(plan.bound_scale, 1.0);
  EXPECT_EQ(plan.LeafCap(1000), KnnPlan::kUnlimited);
  EXPECT_EQ(plan.DeltaCap(1000), KnnPlan::kUnlimited);
}

TEST(KnnPlan, DeltaCapIsCeilOfFraction) {
  KnnPlan plan;
  plan.delta = 0.25;
  EXPECT_EQ(plan.DeltaCap(100), 25);
  EXPECT_EQ(plan.DeltaCap(101), 26);  // ceil
  EXPECT_EQ(plan.DeltaCap(1), 1);     // never below one leaf
  plan.delta = 0.001;
  EXPECT_EQ(plan.DeltaCap(100), 1);
}

TEST(KnnPlan, LeafCapTakesTheTighterOfDeltaAndBudget) {
  KnnPlan plan;
  plan.delta = 0.5;
  plan.max_leaves = 10;
  EXPECT_EQ(plan.LeafCap(100), 10);  // budget tighter
  EXPECT_EQ(plan.LeafCap(10), 5);    // delta tighter
}

TEST(ModeFallback, ReasonListsSupportedModes) {
  const auto scan = bench::CreateMethod("UCR-Suite");
  EXPECT_EQ(ModeFallbackReason(scan->traits(), QualityMode::kExact), "");
  EXPECT_EQ(ModeFallbackReason(scan->traits(), QualityMode::kEpsilon),
            "method supports modes: exact");
  const auto mtree = bench::CreateMethod("M-tree");
  EXPECT_EQ(ModeFallbackReason(mtree->traits(), QualityMode::kEpsilon), "");
  EXPECT_EQ(ModeFallbackReason(mtree->traits(), QualityMode::kNgApprox),
            "method supports modes: exact, epsilon");
  const auto tree = bench::CreateMethod("DSTree");
  EXPECT_EQ(ModeFallbackReason(tree->traits(), QualityMode::kDeltaEpsilon),
            "");
}

TEST(SearchStatsMerge, AddSumsEveryLedgerCounter) {
  SearchStats a;
  SearchStats b;
  int64_t value = 1;
  for (const LedgerCounter& counter : kLedgerCounters) {
    a.*counter.member = value;
    b.*counter.member = 1000 * value;
    ++value;
  }
  a.cpu_seconds = 0.5;
  b.cpu_seconds = 0.25;
  a.Add(b);
  value = 1;
  for (const LedgerCounter& counter : kLedgerCounters) {
    EXPECT_EQ(a.*counter.member, 1001 * value) << counter.name;
    ++value;
  }
  EXPECT_EQ(a.cpu_seconds, 0.75);
}

TEST(SearchStatsMerge, KeepsWeakestGuaranteeAndAnyBudget) {
  SearchStats a;
  a.answer_mode_delivered = QualityMode::kEpsilon;
  SearchStats b;
  b.answer_mode_delivered = QualityMode::kExact;
  b.budget_exhausted = true;
  a.Add(b);
  EXPECT_EQ(a.answer_mode_delivered, QualityMode::kEpsilon);
  EXPECT_TRUE(a.budget_exhausted);
  SearchStats c;
  c.answer_mode_delivered = QualityMode::kNgApprox;
  a.Add(c);
  EXPECT_EQ(a.answer_mode_delivered, QualityMode::kNgApprox);
}

}  // namespace
}  // namespace hydra::core
