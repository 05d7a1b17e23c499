#include <cmath>

#include <gtest/gtest.h>

#include "bench/registry.h"
#include "core/distance.h"
#include "core/method.h"
#include "gen/random_walk.h"
#include "gen/subsequence.h"

namespace hydra::gen {
namespace {

TEST(ChopForWholeMatching, CountsAndOrigins) {
  const auto longs = RandomWalkDataset(3, 100, 771);
  const auto chopped = ChopForWholeMatching(longs, 20, /*stride=*/10);
  // Each 100-long series yields offsets 0,10,...,80 -> 9 windows.
  ASSERT_EQ(chopped.windows.size(), 27u);
  ASSERT_EQ(chopped.origins.size(), 27u);
  EXPECT_EQ(chopped.windows.length(), 20u);
  EXPECT_EQ(chopped.origins[0].source, 0u);
  EXPECT_EQ(chopped.origins[0].offset, 0u);
  EXPECT_EQ(chopped.origins[9].source, 1u);
  EXPECT_EQ(chopped.origins[26].offset, 80u);
}

TEST(ChopForWholeMatching, Stride1EnumeratesAllSubsequences) {
  const auto longs = RandomWalkDataset(1, 64, 772);
  const auto chopped = ChopForWholeMatching(longs, 16, 1);
  EXPECT_EQ(chopped.windows.size(), 64u - 16u + 1u);
}

TEST(ChopForWholeMatching, WindowsAreZNormalized) {
  const auto longs = RandomWalkDataset(2, 80, 773);
  const auto chopped = ChopForWholeMatching(longs, 32, 8);
  for (size_t i = 0; i < chopped.windows.size(); ++i) {
    double sum = 0.0;
    for (const core::Value v : chopped.windows[i]) sum += v;
    EXPECT_NEAR(sum / 32.0, 0.0, 1e-4);
  }
}

TEST(ChopForWholeMatching, RawWindowsMatchSource) {
  const auto longs = RandomWalkDataset(1, 50, 774);
  const auto chopped =
      ChopForWholeMatching(longs, 10, 5, /*znormalize_windows=*/false);
  for (size_t w = 0; w < chopped.windows.size(); ++w) {
    const auto& origin = chopped.origins[w];
    for (size_t j = 0; j < 10; ++j) {
      EXPECT_FLOAT_EQ(chopped.windows[w][j],
                      longs[origin.source][origin.offset + j]);
    }
  }
}

TEST(ChopForWholeMatching, SubsequenceQueryFindsPlantedPattern) {
  // End-to-end subsequence matching via whole matching: plant a known
  // pattern inside a long series and find it with an index.
  const size_t window = 32;
  auto longs = RandomWalkDataset(5, 512, 775);
  const auto pattern_src = RandomWalkDataset(1, window, 776);
  // Plant the pattern at a known position of series 3 by rebuilding the
  // collection (datasets are append-only).
  core::Dataset planted("planted", 512);
  std::vector<core::Value> buf(512);
  for (size_t i = 0; i < longs.size(); ++i) {
    for (size_t j = 0; j < 512; ++j) buf[j] = longs[i][j];
    if (i == 3) {
      for (size_t j = 0; j < window; ++j) buf[100 + j] = pattern_src[0][j];
    }
    planted.Append(buf);
  }
  const auto chopped = ChopForWholeMatching(planted, window, 1);
  auto index = bench::CreateMethod("DSTree", 128);
  index->Build(chopped.windows);
  // Query with the (normalized) pattern.
  std::vector<core::Value> query(pattern_src[0].begin(),
                                 pattern_src[0].end());
  core::ZNormalize(query);
  const auto result = index->Execute(query, core::QuerySpec::Knn(1));
  ASSERT_EQ(result.neighbors.size(), 1u);
  const auto& origin = chopped.origins[result.neighbors[0].id];
  EXPECT_EQ(origin.source, 3u);
  EXPECT_EQ(origin.offset, 100u);
  EXPECT_NEAR(result.neighbors[0].dist_sq, 0.0, 1e-6);
}

}  // namespace
}  // namespace hydra::gen
