// iSAX2+: bulk-loaded iSAX index with variable-cardinality splitting.
// Splits operate on summaries only; raw series are materialized into leaf
// files once at the end of bulk loading (the iSAX2+ optimization).
#ifndef HYDRA_INDEX_ISAX2PLUS_H_
#define HYDRA_INDEX_ISAX2PLUS_H_

#include <memory>
#include <vector>

#include "core/method.h"
#include "index/isax_tree.h"

namespace hydra::index {

/// Options for iSAX2+ (the paper tunes the leaf threshold; 16 segments and
/// cardinality 256 are the paper's defaults).
struct Isax2PlusOptions {
  size_t segments = 16;
  size_t leaf_capacity = 1000;
};

/// Exact whole-matching k-NN via the iSAX2+ index.
class Isax2Plus : public core::SearchMethod {
 public:
  explicit Isax2Plus(Isax2PlusOptions options = {}) : options_(options) {}

  std::string name() const override { return "iSAX2+"; }
  /// The tree is immutable after Build (ApproximateLeaf never creates
  /// nodes at query time), so queries can run concurrently. ng-capable
  /// tree (Table 1), so every approximate mode is supported.
  core::MethodTraits traits() const override {
    return {.supports_ng = true,
            .supports_epsilon = true,
            .supports_delta_epsilon = true,
            .leaf_visit_budget = true,
            .supports_persistence = true,
            .shardable = true};
  }
  core::Footprint footprint() const override;
  double MeanTlb(core::SeriesView query) const override;

 protected:
  core::BuildStats DoBuild(const core::Dataset& data) override;
  void DoSave(io::IndexWriter* writer) const override;
  util::Status DoOpen(io::IndexReader* reader,
                      const core::Dataset& data) override;
  core::QueryResult DoSearchKnn(core::SeriesView query,
                                const core::KnnPlan& plan) override;
  core::QueryResult DoSearchKnnNg(core::SeriesView query,
                                  size_t k) override;
  core::QueryResult DoSearchRange(core::SeriesView query,
                                  const core::RangePlan& plan) override;

 private:
  /// The core::TreeSearch policy of this tree (defined in the .cc).
  class Search;

  /// Sets leaf_count_ from the tree (built or loaded).
  void CountLeaves();

  Isax2PlusOptions options_;
  const core::Dataset* data_ = nullptr;
  std::vector<uint8_t> full_words_;  // segments symbols per series
  std::unique_ptr<IsaxTree> tree_;
  int64_t leaf_count_ = 0;  // built or loaded; the delta leaf-visit rule
};

}  // namespace hydra::index

#endif  // HYDRA_INDEX_ISAX2PLUS_H_
