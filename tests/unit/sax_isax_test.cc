#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "transform/isax.h"
#include "transform/paa.h"
#include "transform/sax.h"
#include "util/rng.h"

namespace hydra::transform {
namespace {

TEST(SaxBreakpoints, EquiDepthGaussian) {
  const auto& bp = SaxBreakpoints::Get();
  const auto b1 = bp.For(1);
  ASSERT_EQ(b1.size(), 1u);
  EXPECT_NEAR(b1[0], 0.0, 1e-9);  // median of N(0,1)
  const auto b2 = bp.For(2);
  ASSERT_EQ(b2.size(), 3u);
  EXPECT_NEAR(b2[1], 0.0, 1e-9);
  EXPECT_NEAR(b2[0], -b2[2], 1e-9);  // symmetric quartiles
}

TEST(SaxBreakpoints, NestedAcrossCardinalities) {
  // Every breakpoint at b bits appears among the breakpoints at b+1 bits;
  // this is what makes iSAX's variable cardinality sound.
  const auto& bp = SaxBreakpoints::Get();
  for (int bits = 1; bits < kMaxSaxBits; ++bits) {
    const auto coarse = bp.For(bits);
    const auto fine = bp.For(bits + 1);
    for (size_t i = 0; i < coarse.size(); ++i) {
      EXPECT_NEAR(coarse[i], fine[2 * i + 1], 1e-9);
    }
  }
}

TEST(SaxSymbol, PrefixPropertyAcrossResolutions) {
  util::Rng rng(31);
  for (int trial = 0; trial < 1000; ++trial) {
    const double v = rng.Gaussian(0.0, 2.0);
    const uint8_t full = SaxSymbol(v, kMaxSaxBits);
    for (int bits = 1; bits <= kMaxSaxBits; ++bits) {
      EXPECT_EQ(SaxSymbol(v, bits), ReduceSymbol(full, bits))
          << "v=" << v << " bits=" << bits;
    }
  }
}

TEST(SaxSymbol, ExtremesMapToEndSymbols) {
  EXPECT_EQ(SaxSymbol(-100.0, 3), 0);
  EXPECT_EQ(SaxSymbol(100.0, 3), 7);
}

TEST(SaxBreakpoints, SymbolRegionsCoverTheLine) {
  const auto& bp = SaxBreakpoints::Get();
  for (int bits : {1, 3, 8}) {
    const int cardinality = 1 << bits;
    EXPECT_TRUE(std::isinf(bp.SymbolLower(0, bits)));
    EXPECT_TRUE(std::isinf(bp.SymbolUpper(
        static_cast<uint8_t>(cardinality - 1), bits)));
    for (int s = 0; s + 1 < cardinality; ++s) {
      EXPECT_DOUBLE_EQ(bp.SymbolUpper(static_cast<uint8_t>(s), bits),
                       bp.SymbolLower(static_cast<uint8_t>(s + 1), bits));
    }
  }
}

TEST(IsaxWord, CoverageAtReducedResolution) {
  std::vector<double> paa = {-1.5, 0.2, 1.7, 0.0};
  IsaxWord full = FullResolutionWord(paa);
  IsaxWord node;
  node.symbols.resize(4);
  node.bits.assign(4, 2);
  for (size_t s = 0; s < 4; ++s) {
    node.symbols[s] = ReduceSymbol(full.symbols[s], 2);
  }
  EXPECT_TRUE(WordCovers(node, full));
  node.symbols[1] = static_cast<uint8_t>(node.symbols[1] ^ 1u);
  EXPECT_FALSE(WordCovers(node, full));
}

TEST(IsaxWord, RootWordCoversEverything) {
  std::vector<double> paa = {-3.0, 3.0};
  IsaxWord full = FullResolutionWord(paa);
  IsaxWord root;
  root.symbols.assign(2, 0);
  root.bits.assign(2, 0);
  EXPECT_TRUE(WordCovers(root, full));
  EXPECT_DOUBLE_EQ(IsaxMinDistSq(paa, root, 8), 0.0);
}

TEST(IsaxMinDist, ZeroWhenInsideRegion) {
  std::vector<double> paa = {0.1, -0.1};
  IsaxWord w = FullResolutionWord(paa);
  EXPECT_DOUBLE_EQ(IsaxMinDistSq(paa, w, 4), 0.0);
}

TEST(IsaxMinDist, LowerBoundsTrueDistanceRandomized) {
  util::Rng rng(32);
  const size_t n = 64;
  const size_t segments = 8;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<core::Value> x(n);
    std::vector<core::Value> y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = static_cast<core::Value>(rng.Gaussian());
      y[i] = static_cast<core::Value>(rng.Gaussian());
    }
    const auto paa_x = Paa(x, segments);
    const auto paa_y = Paa(y, segments);
    IsaxWord wy = FullResolutionWord(paa_y);
    // Also check at random reduced resolutions.
    for (size_t s = 0; s < segments; ++s) {
      const int bits = static_cast<int>(rng.UniformInt(1, kMaxSaxBits));
      wy.symbols[s] = ReduceSymbol(wy.symbols[s], bits);
      wy.bits[s] = static_cast<uint8_t>(bits);
    }
    const double lb = IsaxMinDistSq(paa_x, wy, n / segments);
    EXPECT_LE(lb, core::SquaredEuclidean(x, y) + 1e-9);
  }
}

// A query PAA value of each kind: inside the domain, far outside it, and
// exactly on a full-resolution breakpoint (where the MINDIST branches
// switch), plus the breakpoint's float neighbours.
double QueryValue(util::Rng& rng) {
  const auto bp = SaxBreakpoints::Get().For(kMaxSaxBits);
  const double on = bp[rng.UniformInt(0, bp.size() - 1)];
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return rng.Gaussian();
    case 1:
      return rng.Gaussian(0.0, 8.0);
    case 2:
      return on;
    case 3:
      return std::nextafter(on, -std::numeric_limits<double>::infinity());
    default:
      return std::nextafter(on, std::numeric_limits<double>::infinity());
  }
}

// Both word forms of the table — one word (LowerBoundSq) and a batch of
// ids into a flat word array (LowerBoundsSq, four words side by side) —
// against the scalar reference. Batches of 0..9 ids cover every tail
// length after the groups of four; the ids repeat and skip words, as a
// leaf's members do in the array of all series.
TEST(IsaxQueryTable, BoundsEqualMinDistBitForBit) {
  constexpr size_t kWords = 12;
  util::Rng rng(33);
  IsaxQueryTable table;  // one table, re-armed for every query
  for (const size_t segments : {16u, 8u, 24u}) {
    for (int query = 0; query < 40; ++query) {
      std::vector<double> paa_q(segments);
      for (double& v : paa_q) v = QueryValue(rng);
      const size_t pps = static_cast<size_t>(rng.UniformInt(1, 32));
      table.Reset(paa_q, pps);
      ASSERT_EQ(table.segments(), segments);
      IsaxWord w;
      w.bits.assign(segments, static_cast<uint8_t>(kMaxSaxBits));
      w.symbols.resize(segments);
      for (int trial = 0; trial < 200; ++trial) {
        for (uint8_t& sym : w.symbols) {
          sym = static_cast<uint8_t>(rng.UniformInt(0, 255));
        }
        const double got = table.LowerBoundSq(w.symbols.data());
        ASSERT_EQ(got, IsaxMinDistSq(paa_q, w, pps));
      }

      std::vector<uint8_t> words(kWords * segments);
      for (uint8_t& sym : words) {
        sym = static_cast<uint8_t>(rng.UniformInt(0, 255));
      }
      for (size_t batch = 0; batch <= 9; ++batch) {
        std::vector<core::SeriesId> ids(batch);
        for (core::SeriesId& id : ids) {
          id = static_cast<core::SeriesId>(rng.UniformInt(0, kWords - 1));
        }
        // One slot past the batch must stay untouched.
        std::vector<double> out(batch + 1, -1.0);
        table.LowerBoundsSq(words.data(), ids, out.data());
        for (size_t i = 0; i < batch; ++i) {
          w.symbols.assign(words.begin() + ids[i] * segments,
                           words.begin() + (ids[i] + 1) * segments);
          ASSERT_EQ(out[i], IsaxMinDistSq(paa_q, w, pps))
              << "segments " << segments << " batch " << batch << " i " << i;
        }
        ASSERT_EQ(out[batch], -1.0);
      }
    }
  }
}

// Node words at every cardinality 0..kMaxSaxBits — uniform per word, then
// mixed per segment — against the scalar reference, for query values on
// breakpoints and one ulp either side. The coarse rows come from pairwise
// mins of finer rows, so this pins the nesting argument too.
TEST(IsaxQueryTable, NodeBoundsEqualMinDistAtEveryCardinality) {
  util::Rng rng(35);
  IsaxQueryTable table;
  for (const size_t segments : {8u, 16u, 24u}) {
    for (int query = 0; query < 30; ++query) {
      std::vector<double> paa_q(segments);
      for (double& v : paa_q) v = QueryValue(rng);
      const size_t pps = static_cast<size_t>(rng.UniformInt(1, 32));
      table.Reset(paa_q, pps);
      IsaxWord w;
      w.bits.resize(segments);
      w.symbols.resize(segments);
      for (int bits = 0; bits <= kMaxSaxBits + 1; ++bits) {
        for (int trial = 0; trial < 40; ++trial) {
          for (size_t s = 0; s < segments; ++s) {
            // bits == kMaxSaxBits + 1 mixes cardinalities per segment.
            const int b = bits <= kMaxSaxBits
                              ? bits
                              : static_cast<int>(rng.UniformInt(0, kMaxSaxBits));
            w.bits[s] = static_cast<uint8_t>(b);
            w.symbols[s] =
                static_cast<uint8_t>(rng.UniformInt(0, (1 << b) - 1));
          }
          ASSERT_EQ(table.NodeBoundSq(w), IsaxMinDistSq(paa_q, w, pps))
              << "segments " << segments << " bits " << bits << " word "
              << w.DebugString();
        }
      }
    }
  }
}

TEST(OneBitTermsSq, SumToFirstLevelMinDist) {
  util::Rng rng(36);
  for (const size_t segments : {8u, 16u, 24u}) {
    for (int query = 0; query < 30; ++query) {
      std::vector<double> paa_q(segments);
      for (double& v : paa_q) v = query == 0 ? 0.0 : QueryValue(rng);
      const size_t pps = static_cast<size_t>(rng.UniformInt(1, 32));
      std::vector<double> terms(2 * segments);
      OneBitTermsSq(paa_q, terms.data());
      IsaxWord w;
      w.bits.assign(segments, 1);
      w.symbols.resize(segments);
      for (int trial = 0; trial < 50; ++trial) {
        double acc = 0.0;
        for (size_t s = 0; s < segments; ++s) {
          w.symbols[s] = static_cast<uint8_t>(rng.UniformInt(0, 1));
          acc += terms[2 * s + w.symbols[s]];
        }
        ASSERT_EQ(acc * static_cast<double>(pps),
                  IsaxMinDistSq(paa_q, w, pps));
      }
    }
  }
}

TEST(FullResolutionSymbol, EqualsSaxSymbolOnAndAroundBreakpoints) {
  const auto bp = SaxBreakpoints::Get().For(kMaxSaxBits);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double b : bp) {
    for (const double v :
         {b, std::nextafter(b, -inf), std::nextafter(b, inf)}) {
      EXPECT_EQ(FullResolutionSymbol(v), SaxSymbol(v, kMaxSaxBits)) << v;
    }
  }
  for (const double v : {-inf, inf, -1e300, 1e300, 0.0, -0.0,
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(FullResolutionSymbol(v), SaxSymbol(v, kMaxSaxBits)) << v;
  }
}

TEST(EncodeFullWord, EqualsPaaPlusSaxSymbol) {
  util::Rng rng(34);
  const auto bp = SaxBreakpoints::Get().For(kMaxSaxBits);
  for (const size_t segments : {16u, 8u}) {
    for (int trial = 0; trial < 300; ++trial) {
      const size_t n = segments * static_cast<size_t>(rng.UniformInt(1, 16));
      std::vector<core::Value> x(n);
      for (core::Value& v : x) {
        v = static_cast<core::Value>(rng.Gaussian(0.0, 1.5));
      }
      if (trial % 3 == 0) {
        // Constant segments at float-rounded breakpoints: every PAA sits
        // within a float ulp of a breakpoint.
        const size_t seg_len = n / segments;
        for (size_t s = 0; s < segments; ++s) {
          const auto v = static_cast<core::Value>(
              bp[rng.UniformInt(0, bp.size() - 1)]);
          for (size_t j = 0; j < seg_len; ++j) x[s * seg_len + j] = v;
        }
      }
      std::vector<uint8_t> word(segments);
      EncodeFullWord(x, segments, word.data());
      const auto paa = Paa(x, segments);
      for (size_t s = 0; s < segments; ++s) {
        ASSERT_EQ(word[s], SaxSymbol(paa[s], kMaxSaxBits))
            << "segment " << s << " paa " << paa[s];
      }
    }
  }
  // The median breakpoint is exactly 0: an all-zero series lands on it in
  // every segment, exercising the encoder's tie rule.
  const std::vector<core::Value> zeros(64, 0.0f);
  std::vector<uint8_t> word(16);
  EncodeFullWord(zeros, 16, word.data());
  for (const uint8_t sym : word) EXPECT_EQ(sym, SaxSymbol(0.0, kMaxSaxBits));
}

TEST(IsaxWord, DebugStringFormat) {
  IsaxWord w;
  w.symbols = {3, 0};
  w.bits = {2, 1};
  EXPECT_EQ(w.DebugString(), "3@2 0@1");
}

}  // namespace
}  // namespace hydra::transform
