// SFA trie: a prefix tree over Symbolic Fourier Approximation words with
// per-node DFT MBRs for the tight lower bound (Schaefer & Hoegqvist).
#ifndef HYDRA_INDEX_SFATRIE_H_
#define HYDRA_INDEX_SFATRIE_H_

#include <memory>
#include <span>
#include <vector>

#include "core/method.h"
#include "transform/sfa.h"

namespace hydra::index {

class LeafIdPartition;

/// Options for the SFA trie. The paper's tuned configuration: word length
/// 16, alphabet 8, equi-depth binning.
struct SfaTrieOptions {
  size_t word_length = 16;
  int alphabet = 8;
  transform::SfaQuantizer::Binning binning =
      transform::SfaQuantizer::Binning::kEquiDepth;
  size_t leaf_capacity = 1000;
  /// Number of series sampled to learn the MCB breakpoints (0 = all).
  size_t sample_size = 0;
};

/// Exact whole-matching k-NN via the SFA trie.
class SfaTrie : public core::SearchMethod {
 public:
  explicit SfaTrie(SfaTrieOptions options = {});
  ~SfaTrie() override;

  std::string name() const override { return "SFA"; }
  /// The trie is immutable after Build, so queries can run concurrently.
  /// ng-capable tree (Table 1), so every approximate mode is supported.
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

  /// Calls `visit(node, depth)` on every node, depth first from the root
  /// (depth 0), children in descending symbol order.
  template <typename Visit>
  void ForEachNode(Visit&& visit) const;

  static void SaveNode(const Node& node, io::IndexWriter* writer);
  std::unique_ptr<Node> LoadNode(io::IndexReader* reader,
                                 LeafIdPartition* leaves) const;

  void Insert(core::SeriesId id, Node* node);
  void SplitLeaf(Node* leaf);
  double NodeLowerBound(std::span<const double> q_dft, const Node& node) const;

  SfaTrieOptions options_;
  const core::Dataset* data_ = nullptr;
  transform::SfaQuantizer quantizer_;
  std::vector<double> dfts_;     // flat word_length doubles per series
  std::vector<uint8_t> words_;   // flat word_length symbols per series
  std::unique_ptr<Node> root_;
  int64_t leaf_count_ = 0;  // built or loaded; the delta leaf-visit rule
};

}  // namespace hydra::index

#endif  // HYDRA_INDEX_SFATRIE_H_
