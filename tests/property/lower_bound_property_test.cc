// Property suite: the no-false-dismissals contract. For randomized series
// of every family, every summarization's lower bound must never exceed the
// true distance, and upper bounds must never fall below it. These sweeps
// are parameterized over series length and family (TEST_P).
#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "gen/realistic.h"
#include "transform/dft.h"
#include "transform/eapca.h"
#include "transform/haar.h"
#include "transform/isax.h"
#include "transform/paa.h"
#include "transform/sfa.h"
#include "transform/vaplus.h"

namespace hydra {
namespace {

using Param = std::tuple<std::string, size_t>;  // family, length

class BoundProperty : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto& [family, length] = GetParam();
    data_ = gen::MakeDataset(family, 64, length, 0xC0FFEE);
    queries_ = gen::MakeDataset(family, 16, length, 0xBEEF);
  }

  core::Dataset data_;
  core::Dataset queries_;
};

TEST_P(BoundProperty, PaaLowerBounds) {
  const size_t segments = 8;
  const size_t pps = data_.length() / segments;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto paa_q = transform::Paa(queries_[q], segments);
    for (size_t i = 0; i < data_.size(); ++i) {
      const auto paa_c = transform::Paa(data_[i], segments);
      const double lb = transform::PaaLowerBoundSq(paa_q, paa_c, pps);
      const double d = core::SquaredEuclidean(queries_[q], data_[i]);
      ASSERT_LE(lb, d + 1e-7) << "q=" << q << " i=" << i;
    }
  }
}

TEST_P(BoundProperty, IsaxMinDistLowerBounds) {
  const size_t segments = 8;
  const size_t pps = data_.length() / segments;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto paa_q = transform::Paa(queries_[q], segments);
    transform::IsaxQueryTable table;
    table.Reset(paa_q, pps);
    for (size_t i = 0; i < data_.size(); ++i) {
      const auto paa_c = transform::Paa(data_[i], segments);
      auto word = transform::FullResolutionWord(paa_c);
      const double d = core::SquaredEuclidean(queries_[q], data_[i]);
      // The full-resolution word, then every coarser node word covering
      // it (one bit less per segment each round, down to the root).
      for (int bits = transform::kMaxSaxBits; bits >= 0; --bits) {
        for (size_t s = 0; s < segments; ++s) {
          word.symbols[s] = transform::ReduceSymbol(
              transform::FullResolutionSymbol(paa_c[s]), bits);
          word.bits[s] = static_cast<uint8_t>(bits);
        }
        const double lb = transform::IsaxMinDistSq(paa_q, word, pps);
        ASSERT_LE(lb, d + 1e-7) << "q=" << q << " i=" << i;
        ASSERT_EQ(table.NodeBoundSq(word), lb)
            << "q=" << q << " i=" << i << " bits=" << bits;
      }
    }
  }
}

TEST_P(BoundProperty, TruncatedDftLowerBounds) {
  const size_t dims =
      std::min<size_t>(16, transform::MaxPackedCoeffs(data_.length(), true));
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto dft_q = transform::PackedRealDft(queries_[q], dims, true);
    for (size_t i = 0; i < data_.size(); ++i) {
      const auto dft_c = transform::PackedRealDft(data_[i], dims, true);
      double lb = 0.0;
      for (size_t d = 0; d < dft_q.size(); ++d) {
        lb += (dft_q[d] - dft_c[d]) * (dft_q[d] - dft_c[d]);
      }
      const double dist = core::SquaredEuclidean(queries_[q], data_[i]);
      ASSERT_LE(lb, dist + 1e-7);
    }
  }
}

TEST_P(BoundProperty, SfaWordLowerBounds) {
  const size_t dims =
      std::min<size_t>(16, transform::MaxPackedCoeffs(data_.length(), true));
  std::vector<std::vector<double>> dfts;
  for (size_t i = 0; i < data_.size(); ++i) {
    dfts.push_back(transform::PackedRealDft(data_[i], dims, true));
  }
  const auto quant = transform::SfaQuantizer::Train(
      dfts, 8, transform::SfaQuantizer::Binning::kEquiDepth);
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto dft_q = transform::PackedRealDft(queries_[q], dims, true);
    for (size_t i = 0; i < data_.size(); ++i) {
      const double lb = quant.LowerBoundSq(dft_q, quant.Quantize(dfts[i]));
      const double dist = core::SquaredEuclidean(queries_[q], data_[i]);
      ASSERT_LE(lb, dist + 1e-7);
    }
  }
}

TEST_P(BoundProperty, VaPlusCellLowerBounds) {
  const size_t dims =
      std::min<size_t>(16, transform::MaxPackedCoeffs(data_.length(), true));
  std::vector<std::vector<double>> dfts;
  for (size_t i = 0; i < data_.size(); ++i) {
    dfts.push_back(transform::PackedRealDft(data_[i], dims, true));
  }
  const auto quant = transform::VaPlusQuantizer::Train(dfts, 48);
  // The per-query tables are the path VA+file prunes with; the scalar
  // reference is checked alongside.
  transform::VaPlusQuantizer::QueryBounds tables;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto dft_q = transform::PackedRealDft(queries_[q], dims, true);
    tables.Reset(quant, dft_q);
    for (size_t i = 0; i < data_.size(); ++i) {
      const auto cells = quant.Quantize(dfts[i]);
      const double dist = core::SquaredEuclidean(queries_[q], data_[i]);
      ASSERT_LE(quant.CellLowerBoundSq(dft_q, cells), dist + 1e-7);
      ASSERT_LE(tables.LowerBoundSq(cells.data()), dist + 1e-7)
          << "q=" << q << " i=" << i;
    }
  }
}

TEST_P(BoundProperty, VaPlusFullSpaceUpperBoundWithTail) {
  // The truncated cell upper bound plus the Cauchy-Schwarz tail term must
  // upper-bound the true distance (VA+file's bsf seeding relies on it).
  const size_t full = transform::MaxPackedCoeffs(data_.length(), true);
  const size_t dims = std::min<size_t>(16, full);
  std::vector<std::vector<double>> dfts;
  std::vector<double> tails;
  for (size_t i = 0; i < data_.size(); ++i) {
    const auto all = transform::PackedRealDft(data_[i], full, true);
    double tail = 0.0;
    for (size_t d = dims; d < all.size(); ++d) tail += all[d] * all[d];
    tails.push_back(tail);
    dfts.emplace_back(all.begin(), all.begin() + static_cast<long>(dims));
  }
  const auto quant = transform::VaPlusQuantizer::Train(dfts, 48);
  transform::VaPlusQuantizer::QueryBounds tables;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto all_q = transform::PackedRealDft(queries_[q], full, true);
    double q_tail = 0.0;
    for (size_t d = dims; d < all_q.size(); ++d) q_tail += all_q[d] * all_q[d];
    const std::span<const double> dft_q(all_q.data(), dims);
    tables.Reset(quant, dft_q);
    for (size_t i = 0; i < data_.size(); ++i) {
      const auto cells = quant.Quantize(dfts[i]);
      const double rt = std::sqrt(q_tail) + std::sqrt(tails[i]);
      const double dist = core::SquaredEuclidean(queries_[q], data_[i]);
      ASSERT_GE(quant.CellUpperBoundSq(dft_q, cells) + rt * rt, dist - 1e-7);
      ASSERT_GE(tables.Both(cells.data()).ub_sq + rt * rt, dist - 1e-7)
          << "q=" << q << " i=" << i;
    }
  }
}

TEST_P(BoundProperty, EapcaNodeBoundBelowDistance) {
  for (const size_t segments : {4u, 8u}) {
    const auto seg = transform::Segmentation::Uniform(data_.length(), segments);
    for (size_t q = 0; q < queries_.size(); ++q) {
      const auto qs = transform::ComputeEapca(queries_[q], seg);
      for (size_t i = 0; i < data_.size(); ++i) {
        const auto cs = transform::ComputeEapca(data_[i], seg);
        std::vector<transform::SegmentRange> env(segments);
        for (size_t s = 0; s < segments; ++s) env[s].Extend(cs[s], true);
        const double lb = transform::EapcaNodeLbSq(qs, env, seg);
        const double dist = core::SquaredEuclidean(queries_[q], data_[i]);
        ASSERT_LE(lb, dist + 1e-7);
      }
    }
  }
}

TEST_P(BoundProperty, HaarResidualUpperBound) {
  // Stepwise's upper bound: partial distance + (sqrt(Eq) + sqrt(Ec))^2.
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto hq = transform::HaarTransform(queries_[q]);
    for (size_t i = 0; i < data_.size(); ++i) {
      const auto hc = transform::HaarTransform(data_[i]);
      const double dist = core::SquaredEuclidean(queries_[q], data_[i]);
      double partial = 0.0;
      double eq = 0.0;
      double ec = 0.0;
      for (const double v : hq) eq += v * v;
      for (const double v : hc) ec += v * v;
      for (size_t d = 0; d < hq.size(); ++d) {
        const double step = (hq[d] - hc[d]) * (hq[d] - hc[d]);
        // Check at every prefix length.
        const double rq = std::sqrt(eq);
        const double rc = std::sqrt(ec);
        ASSERT_GE(partial + (rq + rc) * (rq + rc), dist - 1e-6);
        partial += step;
        eq = std::max(0.0, eq - hq[d] * hq[d]);
        ec = std::max(0.0, ec - hc[d] * hc[d]);
      }
      ASSERT_NEAR(partial, dist, 1e-6 * std::max(1.0, dist));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndLengths, BoundProperty,
    ::testing::Combine(::testing::Values("synth", "seismic", "astro", "sald",
                                         "deep"),
                       ::testing::Values(64u, 96u, 128u)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param) + "_len" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hydra
