// ADS+: the adaptive data series index. The tree holds iSAX summaries only;
// exact queries use SIMS — an ng-approximate tree descent for an initial
// best-so-far, then per-series lower bounds against all full-resolution
// summaries, then a skip-sequential pass over the raw file.
#ifndef HYDRA_INDEX_ADS_H_
#define HYDRA_INDEX_ADS_H_

#include <memory>
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
  /// ADS+ is adaptive: exact queries split leaves along the query path
  /// (mutating the shared iSAX tree), so the batch engine must keep its
  /// queries serial. ng-capable
  /// tree (Table 1), so every approximate mode is supported; the delta
  /// rule applies to its skip-sequential candidate list (one series is
  /// its unit of random access, not one leaf).
  core::MethodTraits traits() const override {
    return {.concurrent_queries = false,
            .serial_reason =
                "adaptive query-path leaf splitting mutates the shared "
                "iSAX tree during queries",
            .supports_ng = true,
            .supports_epsilon = true,
            .supports_delta_epsilon = true,
            .supports_persistence = true,
            // Sharding is what finally parallelizes ADS+ across queries:
            // the fan-out gives each shard's adaptive tree exactly one
            // thread per query, so concurrent_queries can stay honestly
            // false.
            .shardable = true};
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

  AdsOptions options_;
  const core::Dataset* data_ = nullptr;
  std::vector<uint8_t> full_words_;
  std::unique_ptr<IsaxTree> tree_;
};

}  // namespace hydra::index

#endif  // HYDRA_INDEX_ADS_H_
