#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "transform/dft.h"
#include "transform/kmeans1d.h"
#include "transform/sfa.h"
#include "transform/vaplus.h"
#include "util/rng.h"

namespace hydra::transform {
namespace {

TEST(Kmeans1d, SeparatesWellSeparatedClusters) {
  std::vector<double> values;
  util::Rng rng(51);
  for (int i = 0; i < 100; ++i) values.push_back(rng.Gaussian(-10.0, 0.1));
  for (int i = 0; i < 100; ++i) values.push_back(rng.Gaussian(10.0, 0.1));
  const auto result = Kmeans1d(values, 2);
  ASSERT_EQ(result.centroids.size(), 2u);
  EXPECT_NEAR(result.centroids[0], -10.0, 0.2);
  EXPECT_NEAR(result.centroids[1], 10.0, 0.2);
  ASSERT_EQ(result.boundaries.size(), 1u);
  EXPECT_NEAR(result.boundaries[0], 0.0, 0.5);
}

TEST(Kmeans1d, CentroidsSortedAndBoundariesBetween) {
  util::Rng rng(52);
  std::vector<double> values(500);
  for (auto& v : values) v = rng.Gaussian();
  const auto result = Kmeans1d(values, 8);
  EXPECT_TRUE(std::is_sorted(result.centroids.begin(),
                             result.centroids.end()));
  for (size_t c = 0; c + 1 < result.centroids.size(); ++c) {
    EXPECT_GE(result.boundaries[c], result.centroids[c]);
    EXPECT_LE(result.boundaries[c], result.centroids[c + 1]);
  }
}

TEST(Kmeans1d, SingleCluster) {
  const std::vector<double> values = {1.0, 2.0, 3.0};
  const auto result = Kmeans1d(values, 1);
  ASSERT_EQ(result.centroids.size(), 1u);
  EXPECT_DOUBLE_EQ(result.centroids[0], 2.0);
  EXPECT_TRUE(result.boundaries.empty());
}

TEST(Kmeans1d, DegenerateDuplicateData) {
  const std::vector<double> values(100, 5.0);
  const auto result = Kmeans1d(values, 4);
  EXPECT_EQ(result.centroids.size(), 4u);  // no crash, stable output
}

std::vector<std::vector<double>> RandomDfts(util::Rng* rng, size_t count,
                                            size_t dims) {
  std::vector<std::vector<double>> dfts(count, std::vector<double>(dims));
  for (auto& row : dfts) {
    for (size_t d = 0; d < dims; ++d) {
      // Decaying energy across dimensions, like real DFT summaries.
      row[d] = rng->Gaussian() * std::pow(0.8, static_cast<double>(d));
    }
  }
  return dfts;
}

TEST(SfaQuantizer, SymbolsWithinAlphabet) {
  util::Rng rng(53);
  const auto dfts = RandomDfts(&rng, 500, 8);
  const auto q = SfaQuantizer::Train(dfts, 8, SfaQuantizer::Binning::kEquiDepth);
  for (const auto& dft : dfts) {
    const auto word = q.Quantize(dft);
    for (const uint8_t s : word) EXPECT_LT(s, 8);
  }
}

TEST(SfaQuantizer, EquiDepthBalancesSymbols) {
  util::Rng rng(54);
  const auto dfts = RandomDfts(&rng, 4000, 4);
  const auto q = SfaQuantizer::Train(dfts, 4, SfaQuantizer::Binning::kEquiDepth);
  std::vector<int> histogram(4, 0);
  for (const auto& dft : dfts) ++histogram[q.Quantize(dft)[0]];
  for (const int c : histogram) {
    EXPECT_GT(c, 700);  // roughly balanced quarters
    EXPECT_LT(c, 1300);
  }
}

TEST(SfaQuantizer, LowerBoundZeroForOwnWord) {
  util::Rng rng(55);
  const auto dfts = RandomDfts(&rng, 200, 8);
  const auto q = SfaQuantizer::Train(dfts, 8, SfaQuantizer::Binning::kEquiDepth);
  for (const auto& dft : dfts) {
    EXPECT_DOUBLE_EQ(q.LowerBoundSq(dft, q.Quantize(dft)), 0.0);
  }
}

TEST(SfaQuantizer, LowerBoundsTrueSummaryDistance) {
  util::Rng rng(56);
  const auto dfts = RandomDfts(&rng, 300, 8);
  const auto q = SfaQuantizer::Train(dfts, 8, SfaQuantizer::Binning::kEquiDepth);
  for (int trial = 0; trial < 100; ++trial) {
    const auto& a = dfts[static_cast<size_t>(rng.UniformInt(0, 299))];
    const auto& b = dfts[static_cast<size_t>(rng.UniformInt(0, 299))];
    double true_dist = 0.0;
    for (size_t d = 0; d < a.size(); ++d) {
      true_dist += (a[d] - b[d]) * (a[d] - b[d]);
    }
    EXPECT_LE(q.LowerBoundSq(a, q.Quantize(b)), true_dist + 1e-9);
  }
}

TEST(SfaQuantizer, EquiWidthBinsAreUniform) {
  util::Rng rng(57);
  const auto dfts = RandomDfts(&rng, 500, 2);
  const auto q = SfaQuantizer::Train(dfts, 8, SfaQuantizer::Binning::kEquiWidth);
  const auto bins = q.BreakpointsFor(0);
  ASSERT_EQ(bins.size(), 7u);
  const double width = bins[1] - bins[0];
  for (size_t i = 1; i + 1 < bins.size(); ++i) {
    EXPECT_NEAR(bins[i + 1] - bins[i], width, 1e-9);
  }
}

TEST(VaPlusQuantizer, NonUniformAllocationFavorsHighEnergyDims) {
  util::Rng rng(58);
  const auto dfts = RandomDfts(&rng, 1000, 8);  // energy decays with dim
  const auto q = VaPlusQuantizer::Train(dfts, 32);
  EXPECT_GE(q.bits_for(0), q.bits_for(7));
  int total = 0;
  for (size_t d = 0; d < q.dims(); ++d) total += q.bits_for(d);
  EXPECT_LE(total, 32);
  EXPECT_GE(total, 28);  // nearly the whole budget is spent
}

TEST(VaPlusQuantizer, UniformAllocationIsFlat) {
  util::Rng rng(59);
  const auto dfts = RandomDfts(&rng, 500, 8);
  const auto q = VaPlusQuantizer::Train(
      dfts, 32, VaPlusQuantizer::Allocation::kUniform);
  for (size_t d = 0; d < q.dims(); ++d) EXPECT_EQ(q.bits_for(d), 4);
}

TEST(VaPlusQuantizer, CellBoundsBracketTrueDistance) {
  util::Rng rng(60);
  const auto dfts = RandomDfts(&rng, 500, 8);
  const auto q = VaPlusQuantizer::Train(dfts, 40);
  for (int trial = 0; trial < 200; ++trial) {
    const auto& query = dfts[static_cast<size_t>(rng.UniformInt(0, 499))];
    const auto& cand = dfts[static_cast<size_t>(rng.UniformInt(0, 499))];
    double true_dist = 0.0;
    for (size_t d = 0; d < query.size(); ++d) {
      true_dist += (query[d] - cand[d]) * (query[d] - cand[d]);
    }
    const auto cells = q.Quantize(cand);
    EXPECT_LE(q.CellLowerBoundSq(query, cells), true_dist + 1e-9);
    EXPECT_GE(q.CellUpperBoundSq(query, cells), true_dist - 1e-9);
  }
}

TEST(VaPlusQuantizer, LowerBoundZeroForOwnCell) {
  util::Rng rng(61);
  const auto dfts = RandomDfts(&rng, 300, 4);
  const auto q = VaPlusQuantizer::Train(dfts, 16);
  for (const auto& dft : dfts) {
    EXPECT_DOUBLE_EQ(q.CellLowerBoundSq(dft, q.Quantize(dft)), 0.0);
  }
}

TEST(VaPlusQuantizer, MoreBitsTightenBounds) {
  util::Rng rng(62);
  const auto dfts = RandomDfts(&rng, 1000, 8);
  const auto q_small = VaPlusQuantizer::Train(dfts, 16);
  const auto q_large = VaPlusQuantizer::Train(dfts, 64);
  double small_sum = 0.0;
  double large_sum = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto& query = dfts[static_cast<size_t>(rng.UniformInt(0, 999))];
    const auto& cand = dfts[static_cast<size_t>(rng.UniformInt(0, 999))];
    small_sum += q_small.CellLowerBoundSq(query, q_small.Quantize(cand));
    large_sum += q_large.CellLowerBoundSq(query, q_large.Quantize(cand));
  }
  EXPECT_GT(large_sum, small_sum);
}

// The per-query tables must reproduce the scalar reference bit for bit:
// VA+file prunes with them, so any drift would change answers and work
// counters. Quantizers span 0-bit and kMaxBitsPerDim dimensions (with
// duplicate edges for degenerate cells), queries fall inside and outside
// the outer edges, and one QueryBounds is reused across shapes.
TEST(VaPlusQuantizer, QueryTablesEqualScalarReference) {
  util::Rng rng(63);
  VaPlusQuantizer::QueryBounds bounds;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t dims = static_cast<size_t>(rng.UniformInt(1, 16));
    std::vector<int> bits(dims);
    std::vector<std::vector<double>> edges(dims);
    for (size_t d = 0; d < dims; ++d) {
      bits[d] = d == 0   ? 0
                : d == 1 ? VaPlusQuantizer::kMaxBitsPerDim
                         : static_cast<int>(rng.UniformInt(
                               0, VaPlusQuantizer::kMaxBitsPerDim));
      edges[d].resize((size_t{1} << bits[d]) + 1);
      for (double& e : edges[d]) e = rng.Gaussian() * 3.0;
      if (edges[d].size() > 2) edges[d][1] = edges[d][0];  // degenerate cell
      std::sort(edges[d].begin(), edges[d].end());
    }
    const auto lo_edge = [&](size_t d) { return edges[d].front(); };
    const auto hi_edge = [&](size_t d) { return edges[d].back(); };
    std::vector<std::vector<double>> queries(4, std::vector<double>(dims));
    for (size_t d = 0; d < dims; ++d) {
      queries[0][d] = rng.Gaussian();
      queries[1][d] = lo_edge(d) - 1.0 - std::fabs(rng.Gaussian());
      queries[2][d] = hi_edge(d) + 1.0 + std::fabs(rng.Gaussian());
      queries[3][d] = rng.UniformInt(0, 1) ? lo_edge(d) : hi_edge(d);
    }
    const auto q = VaPlusQuantizer::FromTables(edges, bits, 1);
    for (const auto& query : queries) {
      bounds.Reset(q, query);
      for (int c = 0; c < 50; ++c) {
        std::vector<uint16_t> cells(dims);
        for (size_t d = 0; d < dims; ++d) {
          cells[d] = static_cast<uint16_t>(
              c == 0 ? 0
              : c == 1 ? (1 << bits[d]) - 1
                       : rng.UniformInt(0, (1 << bits[d]) - 1));
        }
        const double lb = q.CellLowerBoundSq(query, cells);
        const double ub = q.CellUpperBoundSq(query, cells);
        EXPECT_TRUE(bounds.LowerBoundSq(cells.data()) == lb) << trial;
        const auto both = bounds.Both(cells.data());
        EXPECT_TRUE(both.lb_sq == lb) << trial;
        EXPECT_TRUE(both.ub_sq == ub) << trial;
      }
    }
  }
}

}  // namespace
}  // namespace hydra::transform
