// DSTree: data-adaptive and dynamic segmentation index (Wang et al. 2013).
// Each node has its own EAPCA segmentation; splits are horizontal (on a
// segment's mean or stddev) or vertical (refine a segment, then split),
// chosen by a quality-of-split heuristic over both bounds.
#ifndef HYDRA_INDEX_DSTREE_H_
#define HYDRA_INDEX_DSTREE_H_

#include <memory>
#include <vector>

#include "core/method.h"
#include "transform/eapca.h"

namespace hydra::index {

class LeafIdPartition;

/// Options for DSTree. Segmentations start uniform with `initial_segments`
/// and may refine up to `max_segments` via vertical splits.
struct DsTreeOptions {
  size_t initial_segments = 4;
  size_t max_segments = 32;
  size_t leaf_capacity = 1000;
};

/// Exact whole-matching k-NN via the DSTree. Besides the EAPCA tree it
/// keeps one full-resolution iSAX word per series, which bounds every
/// member of a visited leaf before its raw read — the Hercules
/// series-level filter.
class DsTree : public core::SearchMethod {
 public:
  explicit DsTree(DsTreeOptions options = {});
  ~DsTree() override;

  std::string name() const override { return "DSTree"; }
  /// The tree is immutable after Build (queries only read nodes and the
  /// dataset), so queries can run concurrently. ng-capable tree (Table 1),
  /// so every approximate mode is supported.
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
  struct Node;
  /// The core::TreeSearch policy of this tree (defined in the .cc).
  class Search;

  /// Cumulative sums of one series: sum[i] and sum_sq[i] fold x[0, i)
  /// left to right, so any segment's mean/stddev is O(1). Assign refills
  /// the same buffers, so one Prefix serves a whole build or query.
  struct Prefix {
    std::vector<double> sum;
    std::vector<double> sum_sq;

    void Assign(core::SeriesView x);
  };
  /// The reusable scratch of one Build (defined in the .cc).
  struct BuildScratch;

  /// Calls `visit(node, depth)` on every node, depth first from the root
  /// (depth 0), the right child before the left.
  template <typename Visit>
  void ForEachNode(Visit&& visit) const;

  static void SaveNode(const Node& node, io::IndexWriter* writer);
  static std::unique_ptr<Node> LoadNode(io::IndexReader* reader,
                                        size_t series_length,
                                        LeafIdPartition* leaves);

  static transform::SegmentStats StatOf(const Prefix& p, uint32_t begin,
                                        uint32_t end);
  /// Writes StatOf over each segment of `seg` to out[0, seg.segments()).
  static void StatsOn(const Prefix& p, const transform::Segmentation& seg,
                      transform::SegmentStats* out);

  void Insert(core::SeriesId id, BuildScratch* scratch);
  void SplitLeaf(Node* leaf, BuildScratch* scratch);

  DsTreeOptions options_;
  const core::Dataset* data_ = nullptr;
  std::unique_ptr<Node> root_;
  // WordSegments(length) full-resolution symbols per series id (the
  // iSAX2+ summary layout).
  std::vector<uint8_t> words_;
  int64_t leaf_count_ = 0;  // built or loaded; the delta leaf-visit rule
};

}  // namespace hydra::index

#endif  // HYDRA_INDEX_DSTREE_H_
