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
    return {.concurrent_queries = true,
            .serial_reason = "",
            .supports_ng = true,
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

  /// Per-series cumulative sums enabling O(1) segment mean/stddev.
  struct Prefix {
    std::vector<double> sum;
    std::vector<double> sum_sq;
  };

  static void SaveNode(const Node& node, io::IndexWriter* writer);
  static std::unique_ptr<Node> LoadNode(io::IndexReader* reader,
                                        size_t series_length,
                                        LeafIdPartition* leaves);

  static Prefix ComputePrefix(core::SeriesView x);
  static transform::SegmentStats StatOf(const Prefix& p, uint32_t begin,
                                        uint32_t end);
  static std::vector<transform::SegmentStats> StatsOn(
      const Prefix& p, const transform::Segmentation& seg);

  void Insert(core::SeriesId id, const Prefix& p);
  void SplitLeaf(Node* leaf);

  DsTreeOptions options_;
  const core::Dataset* data_ = nullptr;
  std::unique_ptr<Node> root_;
  // WordSegments(length) full-resolution symbols per series id (the
  // iSAX2+ summary layout).
  std::vector<uint8_t> words_;
  int64_t leaf_count_ = 0;  // at Build time; the delta leaf-visit rule
};

}  // namespace hydra::index

#endif  // HYDRA_INDEX_DSTREE_H_
