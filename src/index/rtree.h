// R*-tree over PAA summaries (Beckmann et al.), with ChooseSubtree overlap
// minimization, the R* topological split, and forced reinsertion. PAA
// points are scaled by sqrt(points_per_segment) so that rectangle MINDIST
// lower-bounds the true Euclidean distance.
#ifndef HYDRA_INDEX_RTREE_H_
#define HYDRA_INDEX_RTREE_H_

#include <memory>
#include <vector>

#include "core/method.h"

namespace hydra::index {

/// Options for the R*-tree (the paper tunes the leaf capacity; 50 wins).
struct RTreeOptions {
  size_t segments = 16;
  size_t leaf_capacity = 50;
  size_t internal_capacity = 50;
  /// Fraction of entries re-inserted on first overflow per level.
  double reinsert_fraction = 0.3;
};

/// Exact whole-matching k-NN via an R*-tree on PAA points.
class RStarTree : public core::SearchMethod {
 public:
  explicit RStarTree(RTreeOptions options = {});
  ~RStarTree() override;

  std::string name() const override { return "R*-tree"; }
  /// The tree is immutable after Build and each query reads the raw file
  /// through its own cursor, so queries can run concurrently. MINDIST
  /// pruning admits the epsilon relaxation; there is no ng descent (the
  /// tree is not a covering trie) and no delta rule.
  core::MethodTraits traits() const override {
    return {.supports_epsilon = true,
            .leaf_visit_budget = true,
            .supports_persistence = true,
            .shardable = true,
            .length_multiple = options_.segments};
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
  core::QueryResult DoSearchRange(core::SeriesView query,
                                  const core::RangePlan& plan) override;

 private:
  struct Node;
  /// The core::TreeSearch policy of this tree (defined in the .cc).
  class Search;
  struct Entry;

  /// Calls `visit(node, depth)` on every node, depth first from the root
  /// (depth 0), the last entry's child first.
  template <typename Visit>
  void ForEachNode(Visit&& visit) const;

  static void SaveNode(const Node& node, io::IndexWriter* writer);
  std::unique_ptr<Node> LoadNode(io::IndexReader* reader,
                                 size_t series_count) const;

  void InsertPoint(core::SeriesId id);
  void InsertEntry(Entry entry, int target_level, bool allow_reinsert);
  Node* ChooseSubtree(const Entry& entry, int target_level,
                      std::vector<Node*>* path);
  void HandleOverflow(Node* node, std::vector<Node*>& path,
                      bool allow_reinsert);
  void SplitNode(Node* node, std::vector<Node*>& path);

  RTreeOptions options_;
  const core::Dataset* data_ = nullptr;
  size_t dims_ = 0;
  double scale_ = 1.0;  // sqrt(points per segment)
  std::vector<double> points_;  // scaled PAA point per series
  std::unique_ptr<Node> root_;  // its level is the height (leaf level = 0)
};

}  // namespace hydra::index

#endif  // HYDRA_INDEX_RTREE_H_
