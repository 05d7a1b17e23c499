// End-to-end kernel axis: the same built index queried under every
// supported kernel set must return the same neighbors as under the scalar
// reference — identical ids on the order-preserving pruning paths, and
// distances within the documented raw-kernel tolerance everywhere.
// Indexes are built once per method under scalar dispatch; only the query
// path switches sets, which is exactly how --kernels works in the CLI.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/method.h"
#include "core/simd/kernels.h"
#include "gen/realistic.h"
#include "gen/workload.h"

namespace hydra {
namespace {

// Restores the process-wide kernel selection even when a test fails.
class KernelGuard {
 public:
  KernelGuard() : prior_(&core::simd::ActiveKernels()) {}
  ~KernelGuard() { (void)core::simd::UseKernels(prior_->name); }

 private:
  const core::simd::KernelSet* prior_;
};

class KernelE2eTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelE2eTest, EverySetReturnsTheScalarAnswer) {
  const std::string method_name = GetParam();
  const core::Dataset data = gen::MakeDataset("seismic", 1500, 128, 4242);
  const gen::Workload w = gen::RandWorkload(5, 128, 4343);
  constexpr size_t kK = 5;

  KernelGuard guard;
  ASSERT_TRUE(core::simd::UseKernels("scalar").ok());
  auto method = bench::CreateMethod(method_name, 64);
  method->Build(data);

  // Scalar baseline per query.
  std::vector<core::QueryResult> baseline;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    baseline.push_back(method->Execute(w.queries[q], core::QuerySpec::Knn(kK)));
    ASSERT_EQ(baseline.back().neighbors.size(), kK);
  }

  for (const core::simd::KernelSet* set : core::simd::SupportedKernelSets()) {
    ASSERT_TRUE(core::simd::UseKernels(set->name).ok());
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const core::QueryResult got =
          method->Execute(w.queries[q], core::QuerySpec::Knn(kK));
      ASSERT_EQ(got.neighbors.size(), kK) << set->name << " q=" << q;
      for (size_t i = 0; i < kK; ++i) {
        EXPECT_EQ(got.neighbors[i].id, baseline[q].neighbors[i].id)
            << method_name << " under " << set->name << " q=" << q
            << " rank=" << i;
        const double want = baseline[q].neighbors[i].dist_sq;
        EXPECT_NEAR(got.neighbors[i].dist_sq, want,
                    1e-9 * std::max(1.0, want))
            << method_name << " under " << set->name << " q=" << q
            << " rank=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodSample, KernelE2eTest,
    ::testing::Values("iSAX2+", "DSTree", "VA+file"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace hydra
