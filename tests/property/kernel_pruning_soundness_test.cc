// Pruning-soundness property, per kernel set: with each set forced as the
// active dispatch target, every summarization's lower bound — computed
// through the real transform pipeline exactly as the indexes compute it —
// must still lower-bound the scalar-reference raw distance. A SIMD kernel
// that over-estimates a bound would silently prune true neighbors; this
// suite is the tripwire.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/simd/kernels.h"
#include "gen/realistic.h"
#include "transform/dft.h"
#include "transform/eapca.h"
#include "transform/isax.h"
#include "transform/paa.h"
#include "transform/sfa.h"

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

class KernelPruningSoundness : public ::testing::TestWithParam<size_t> {
 protected:
  const core::simd::KernelSet& set() const {
    return *core::simd::AllKernelSets()[GetParam()];
  }

  void SetUp() override {
    if (!core::simd::KernelSetSupported(set())) {
      GTEST_SKIP() << "CPU cannot execute kernel set " << set().name;
    }
    guard_ = std::make_unique<KernelGuard>();
    ASSERT_TRUE(core::simd::UseKernels(set().name).ok());
    data_ = gen::MakeDataset("seismic", 48, 128, 0x5EED);
    queries_ = gen::MakeDataset("synth", 8, 128, 0xFACE);
  }

  void TearDown() override { guard_.reset(); }

  // The ground truth deliberately bypasses dispatch: the scalar reference
  // is the contract's fixed point.
  double RefDistance(core::SeriesView a, core::SeriesView b) const {
    return core::simd::ScalarKernels().euclidean_sq(a.data(), b.data(),
                                                    a.size());
  }

  std::unique_ptr<KernelGuard> guard_;
  core::Dataset data_;
  core::Dataset queries_;
};

TEST_P(KernelPruningSoundness, PaaAndIsaxBoundsNeverOverestimate) {
  const size_t segments = 8;
  const size_t pps = data_.length() / segments;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto paa_q = transform::Paa(queries_[q], segments);
    transform::IsaxQueryTable table;
    table.Reset(paa_q, pps);
    for (size_t i = 0; i < data_.size(); ++i) {
      const auto paa_c = transform::Paa(data_[i], segments);
      auto word = transform::FullResolutionWord(paa_c);
      const double d = RefDistance(queries_[q], data_[i]);
      ASSERT_LE(transform::PaaLowerBoundSq(paa_q, paa_c, pps), d + 1e-7)
          << set().name << " q=" << q << " i=" << i;
      ASSERT_LE(transform::IsaxMinDistSq(paa_q, word, pps), d + 1e-7)
          << set().name << " q=" << q << " i=" << i;
      ASSERT_EQ(table.LowerBoundSq(word.symbols.data()),
                transform::IsaxMinDistSq(paa_q, word, pps))
          << set().name << " q=" << q << " i=" << i;
      // The first-level word, the coarsest node bound a tree computes.
      for (size_t s = 0; s < segments; ++s) {
        word.symbols[s] = transform::ReduceSymbol(word.symbols[s], 1);
        word.bits[s] = 1;
      }
      const double node_lb = transform::IsaxMinDistSq(paa_q, word, pps);
      ASSERT_LE(node_lb, d + 1e-7) << set().name << " q=" << q << " i=" << i;
      ASSERT_EQ(table.NodeBoundSq(word), node_lb)
          << set().name << " q=" << q << " i=" << i;
    }
  }
}

TEST_P(KernelPruningSoundness, SfaWordBoundNeverOverestimates) {
  const size_t dims = 16;
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
      ASSERT_LE(lb, RefDistance(queries_[q], data_[i]) + 1e-7)
          << set().name << " q=" << q << " i=" << i;
    }
  }
}

TEST_P(KernelPruningSoundness, EapcaNodeBoundNeverOverestimates) {
  for (const size_t segments : {5u, 8u}) {
    const auto seg = transform::Segmentation::Uniform(data_.length(), segments);
    for (size_t q = 0; q < queries_.size(); ++q) {
      const auto qs = transform::ComputeEapca(queries_[q], seg);
      for (size_t i = 0; i < data_.size(); ++i) {
        const auto cs = transform::ComputeEapca(data_[i], seg);
        std::vector<transform::SegmentRange> env(segments);
        for (size_t s = 0; s < segments; ++s) env[s].Extend(cs[s], true);
        const double lb = transform::EapcaNodeLbSq(qs, env, seg);
        ASSERT_LE(lb, RefDistance(queries_[q], data_[i]) + 1e-7)
            << set().name << " segments=" << segments << " q=" << q
            << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSets, KernelPruningSoundness,
    ::testing::Range(size_t{0}, core::simd::AllKernelSets().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(core::simd::AllKernelSets()[info.param]->name);
    });

}  // namespace
}  // namespace hydra
