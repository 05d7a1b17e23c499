#include <cmath>

#include <gtest/gtest.h>

#include "gen/random_walk.h"
#include "gen/realistic.h"
#include "core/method.h"
#include "gen/workload.h"
#include "transform/dft.h"

namespace hydra::gen {
namespace {

void ExpectZNormalized(const core::Dataset& d) {
  for (size_t i = 0; i < d.size(); ++i) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const core::Value v : d[i]) {
      sum += v;
      sum_sq += static_cast<double>(v) * v;
    }
    const double n = static_cast<double>(d.length());
    EXPECT_NEAR(sum / n, 0.0, 1e-4) << d.name() << " series " << i;
    const double var = sum_sq / n;
    if (var > 0.0) {
      EXPECT_NEAR(var, 1.0, 1e-3);
    }
  }
}

TEST(RandomWalk, ShapeAndNormalization) {
  const auto d = RandomWalkDataset(50, 128, 1);
  EXPECT_EQ(d.size(), 50u);
  EXPECT_EQ(d.length(), 128u);
  ExpectZNormalized(d);
}

TEST(RandomWalk, DeterministicPerSeed) {
  const auto a = RandomWalkDataset(5, 64, 7);
  const auto b = RandomWalkDataset(5, 64, 7);
  const auto c = RandomWalkDataset(5, 64, 8);
  for (size_t j = 0; j < 64; ++j) EXPECT_FLOAT_EQ(a[0][j], b[0][j]);
  bool differs = false;
  for (size_t j = 0; j < 64; ++j) differs |= (a[0][j] != c[0][j]);
  EXPECT_TRUE(differs);
}

TEST(RealisticFamilies, AllGenerateAndNormalize) {
  for (const std::string family : {"seismic", "astro", "sald", "deep"}) {
    const auto d = MakeDataset(family, 30, 96, 3);
    EXPECT_EQ(d.size(), 30u) << family;
    EXPECT_EQ(d.length(), 96u) << family;
    ExpectZNormalized(d);
  }
}

// The families differ in spectral concentration: SALD-like (smooth) series
// concentrate energy in few coefficients, deep-like spread it out. This is
// the property that differentiates method behaviour across datasets.
double MeanPrefixEnergy(const core::Dataset& d, size_t coeffs) {
  double total = 0.0;
  for (size_t i = 0; i < d.size(); ++i) {
    const auto dft = transform::PackedRealDft(d[i], coeffs, true);
    double e = 0.0;
    for (const double v : dft) e += v * v;
    total += e / static_cast<double>(d.length());
  }
  return total / static_cast<double>(d.size());
}

TEST(RealisticFamilies, SpectralConcentrationOrdering) {
  const size_t len = 128;
  const auto sald = MakeDataset("sald", 60, len, 5);
  const auto deep = MakeDataset("deep", 60, len, 5);
  const auto walk = RandomWalkDataset(60, len, 5);
  const double e_sald = MeanPrefixEnergy(sald, 16);
  const double e_deep = MeanPrefixEnergy(deep, 16);
  const double e_walk = MeanPrefixEnergy(walk, 16);
  EXPECT_GT(e_sald, e_deep);  // smooth beats embedding-like
  EXPECT_GT(e_walk, e_deep);  // random walks are low-frequency heavy
}

TEST(Workload, RandWorkloadShape) {
  const auto w = RandWorkload(20, 64, 11);
  EXPECT_EQ(w.queries.size(), 20u);
  EXPECT_EQ(w.queries.length(), 64u);
  EXPECT_TRUE(w.noise_levels.empty());
}

TEST(Workload, CtrlWorkloadNoiseProgression) {
  const auto data = RandomWalkDataset(100, 64, 12);
  const auto w = CtrlWorkload(data, 10, 13, 0.1, 2.0);
  ASSERT_EQ(w.noise_levels.size(), 10u);
  EXPECT_DOUBLE_EQ(w.noise_levels.front(), 0.1);
  EXPECT_DOUBLE_EQ(w.noise_levels.back(), 2.0);
  for (size_t i = 1; i < w.noise_levels.size(); ++i) {
    EXPECT_GT(w.noise_levels[i], w.noise_levels[i - 1]);
  }
  ExpectZNormalized(w.queries);
}

TEST(Workload, LowNoiseQueriesStayCloseToSource) {
  // A barely perturbed dataset series should have a very close NN, while a
  // heavily perturbed one should not: this is the difficulty control.
  const auto data = RandomWalkDataset(200, 64, 14);
  const auto easy = CtrlWorkload(data, 5, 15, 0.01, 0.01);
  const auto hard = CtrlWorkload(data, 5, 15, 3.0, 3.0);
  auto nn_dist = [&](const core::Dataset& queries) {
    double total = 0.0;
    for (size_t q = 0; q < queries.size(); ++q) {
      const auto nn = core::BruteForceKnn(data, queries[q], 1);
      total += std::sqrt(nn.front().dist_sq);
    }
    return total / static_cast<double>(queries.size());
  };
  EXPECT_LT(nn_dist(easy.queries), nn_dist(hard.queries));
}

TEST(Workload, CtrlNamesFollowDataset) {
  const auto data = MakeDataset("seismic", 20, 64, 16);
  const auto w = CtrlWorkload(data, 3, 17);
  EXPECT_EQ(w.name, "Seismic-Ctrl");
}

}  // namespace
}  // namespace hydra::gen
