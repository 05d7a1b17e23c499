// ADS+: the adaptive data series index. The tree holds iSAX summaries only;
// exact queries use SIMS — an ng-approximate tree descent for an initial
// best-so-far, then per-series lower bounds against all full-resolution
// summaries, then a skip-sequential pass over the raw file.
#ifndef HYDRA_INDEX_ADS_H_
#define HYDRA_INDEX_ADS_H_

#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/method.h"
#include "index/isax_tree.h"

namespace hydra::index {

/// Options for ADS+. `adaptive_leaf_capacity` is the minimal leaf size the
/// index refines to along query paths (adaptive splitting).
struct AdsOptions {
  size_t segments = 16;
  size_t leaf_capacity = 1000;
  size_t adaptive_leaf_capacity = 64;
};

/// Exact whole-matching k-NN via ADS+ / SIMS.
class AdsPlus : public core::SearchMethod {
 public:
  explicit AdsPlus(AdsOptions options = {}) : options_(options) {}

  std::string name() const override { return "ADS+"; }
  /// An ng-capable tree (Table 1), so every approximate mode is
  /// supported; the delta rule applies to its skip-sequential candidate
  /// list (one series is its unit of random access, not one leaf).
  core::MethodTraits traits() const override {
    return {.supports_ng = true,
            .supports_epsilon = true,
            .supports_delta_epsilon = true,
            .supports_persistence = true,
            .shardable = true,
            .length_multiple = options_.segments};
  }
  core::Footprint footprint() const override;
  double MeanTlb(core::SeriesView query) const override;

 protected:
  core::BuildStats DoBuild(const core::Dataset& data) override;
  /// Persists the summary words and the (possibly adaptively refined)
  /// iSAX tree; an opened ADS+ resumes splitting from the saved state.
  void DoSave(io::IndexWriter* writer) const override;
  util::Status DoOpen(io::IndexReader* reader,
                      const core::Dataset& data) override;
  core::QueryResult DoSearchKnn(core::SeriesView query,
                                const core::KnnPlan& plan) override;
  core::QueryResult DoSearchKnnNg(core::SeriesView query, size_t k) override;
  core::QueryResult DoSearchRange(core::SeriesView query,
                                  const core::RangePlan& plan) override;

 private:
  /// SIMS phase 2: the lower bound of every series from its memory-resident
  /// full-resolution summary, one table load per segment, swept by
  /// `workers` workers over disjoint blocks (the values do not depend on
  /// the width).
  std::vector<double> SummaryBounds(core::SeriesView query,
                                    size_t workers) const;
  /// SIMS phase 1's home leaf: the leaf the query's path ends in, split
  /// down to `adaptive_leaf_capacity`. Called and returns with `shared`
  /// held on `tree_mutex_`; a leaf over the capacity swaps it for the
  /// exclusive lock to split, then descends again under the shared lock.
  IsaxTree::Node* AdaptiveLeaf(std::span<const double> paa, size_t pps,
                               std::shared_lock<std::shared_mutex>& shared);

  AdsOptions options_;
  const core::Dataset* data_ = nullptr;
  std::vector<uint8_t> full_words_;
  std::unique_ptr<IsaxTree> tree_;
  /// Queries adapt the tree as they go: a query holds this shared while it
  /// uses any node (SplitLeaf frees a leaf's ids), exclusive to split.
  std::shared_mutex tree_mutex_;
};

}  // namespace hydra::index

#endif  // HYDRA_INDEX_ADS_H_
