// M-tree: metric access method over raw series with covering radii and
// triangle-inequality pruning (Ciaccia, Patella & Zezula). Memory-resident,
// like the only implementation that scaled in the paper's study.
#ifndef HYDRA_INDEX_MTREE_H_
#define HYDRA_INDEX_MTREE_H_

#include <memory>
#include <vector>

#include "core/method.h"

namespace hydra::index {

/// Options for the M-tree (the paper's tuned leaf capacity is very small).
struct MTreeOptions {
  size_t leaf_capacity = 32;
  size_t internal_capacity = 16;
  /// Candidate promotions sampled per split (mM_RAD approximation).
  size_t split_samples = 8;
};

/// Exact whole-matching k-NN via the M-tree. Distances are true Euclidean
/// (the metric the triangle inequality needs); results are reported as
/// squared distances like every other method.
class MTree : public core::SearchMethod {
 public:
  explicit MTree(MTreeOptions options = {});
  ~MTree() override;

  std::string name() const override { return "M-tree"; }
  /// The tree is immutable after Build, so queries can run concurrently.
  /// Table 1 marks the M-tree epsilon-approximate; it has no ng one-path
  /// descent and no delta rule.
  core::MethodTraits traits() const override {
    return {.supports_epsilon = true,
            .leaf_visit_budget = true,
            .supports_persistence = true,
            .shardable = true};
  }

  core::Footprint footprint() const override;

 protected:
  core::BuildStats DoBuild(const core::Dataset& data) override;
  void DoSave(io::IndexWriter* writer) const override;
  util::Status DoOpen(io::IndexReader* reader,
                      const core::Dataset& data) override;
  /// Larger epsilon trades accuracy for fewer distance computations.
  core::QueryResult DoSearchKnn(core::SeriesView query,
                                const core::KnnPlan& plan) override;
  core::QueryResult DoSearchRange(core::SeriesView query,
                                  const core::RangePlan& plan) override;

 private:
  struct Node;
  /// The core::TreeSearch policy of this tree (defined in the .cc).
  class Search;
  struct Route;

  /// Calls `visit(node, depth)` on every node, depth first from the root
  /// (depth 0), the last child first.
  template <typename Visit>
  void ForEachNode(Visit&& visit) const;

  static void SaveNode(const Node& node, io::IndexWriter* writer);
  static std::unique_ptr<Node> LoadNode(io::IndexReader* reader,
                                        size_t series_count);

  double Dist(core::SeriesId a, core::SeriesId b) const;
  /// Inserts into the subtree; on overflow returns two replacement routes.
  bool Insert(Node* node, core::SeriesId id, double dist_to_node_center,
              std::unique_ptr<Node>* out_left,
              std::unique_ptr<Node>* out_right, Route* left_route,
              Route* right_route);
  void SplitNode(Node* node, std::unique_ptr<Node>* out_left,
                 std::unique_ptr<Node>* out_right, Route* left_route,
                 Route* right_route);

  MTreeOptions options_;
  const core::Dataset* data_ = nullptr;
  std::unique_ptr<Node> root_;
  mutable int64_t build_distance_count_ = 0;
};

}  // namespace hydra::index

#endif  // HYDRA_INDEX_MTREE_H_
