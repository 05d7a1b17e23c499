// Shared iSAX tree machinery used by iSAX2+ and ADS+: a first-level layer
// of 1-bit-per-segment words (fanout up to 2^segments, created on demand)
// over binary split subtrees with variable-cardinality words.
#ifndef HYDRA_INDEX_ISAX_TREE_H_
#define HYDRA_INDEX_ISAX_TREE_H_

#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/method.h"
#include "core/types.h"
#include "transform/isax.h"

namespace hydra::io {
class IndexWriter;
class IndexReader;
}  // namespace hydra::io

namespace hydra::index {

/// Configuration of an iSAX tree.
struct IsaxTreeOptions {
  size_t segments = 16;
  size_t leaf_capacity = 1000;
};

/// iSAX split tree. Leaves hold series ids; every series' full-resolution
/// word lives in a flat array owned by the caller (summaries stay in
/// memory, as in both iSAX2+ and ADS+). The first level assigns one bit to
/// every segment at once (the classic iSAX root fanout); further node
/// splits raise one segment's cardinality by one bit, choosing the segment
/// whose next bit partitions the leaf most evenly (the iSAX 2.0 policy).
class IsaxTree {
 public:
  struct Node {
    transform::IsaxWord word;
    int depth = 1;  // first-level nodes sit at depth 1
    bool is_leaf = true;
    int split_segment = -1;            // internal nodes only
    std::unique_ptr<Node> child0;      // next bit 0
    std::unique_ptr<Node> child1;      // next bit 1
    std::vector<core::SeriesId> ids;   // leaf only

    size_t size() const { return ids.size(); }
  };

  /// Maximum segment count the tree supports (first-level keys pack one
  /// bit per segment into a uint32; the constructor CHECK and the
  /// deserializers' pre-validation both derive from this one constant).
  static constexpr size_t kMaxSegments = 24;

  /// `full_words` is the flat per-series full-resolution symbol array
  /// (`segments` symbols per series), owned by the caller and immutable for
  /// the tree's lifetime.
  IsaxTree(IsaxTreeOptions options, const uint8_t* full_words);

  /// Inserts one series by id; creates the first-level node on demand and
  /// splits overflowing leaves.
  void Insert(core::SeriesId id);

  /// Splits `leaf` once (two children, entries redistributed). No-op if the
  /// word is already at maximum resolution everywhere.
  void SplitLeaf(Node* leaf);

  /// Leaf used by ng-approximate search: the leaf covering the query's
  /// full-resolution word (from its PAA `paa_q`) if its first-level node
  /// exists, otherwise the leaf under the first-level node with the
  /// smallest MINDIST (ties to the smallest key; the bounds equal
  /// transform::IsaxMinDistSq bit for bit). Returns nullptr on an empty
  /// tree.
  Node* ApproximateLeaf(std::span<const double> paa_q,
                        size_t points_per_segment);

  /// The first-level nodes by key: the seeds of a best-first search, in
  /// the deterministic order both a built and an opened tree share.
  const std::map<uint32_t, std::unique_ptr<Node>>& first_level() const {
    return first_level_;
  }

  /// Calls `visit(node, depth)` on every node, depth first: the first
  /// level (depth 1) in descending key order, child1 before child0. With
  /// a `root`, walks only the subtree under it (from its own depth).
  template <typename Visit>
  void ForEachNode(Visit&& visit, const Node* root = nullptr) const {
    std::vector<std::pair<const Node*, int>> stack;
    if (root != nullptr) {
      stack.push_back({root, root->depth});
    } else {
      for (const auto& [key, node] : first_level_) {
        stack.push_back({node.get(), 1});
      }
    }
    while (!stack.empty()) {
      const auto [node, depth] = stack.back();
      stack.pop_back();
      visit(*node, depth);
      if (!node->is_leaf) {
        stack.push_back({node->child0.get(), depth + 1});
        stack.push_back({node->child1.get(), depth + 1});
      }
    }
  }

  /// SearchMethod::MeanTlb of both iSAX methods (Section 4.2): the mean
  /// over non-empty leaves of MINDIST / mean true distance of its members.
  double MeanTlb(core::SeriesView query, const core::Dataset& data) const;

  /// Number of nodes / leaf nodes and resident bytes of the structure.
  core::Footprint StructureFootprint() const;

  /// Serializes the tree structure into the writer's current section (the
  /// caller-owned full-resolution word array is persisted by the owner).
  void SaveTo(io::IndexWriter* writer) const;

  /// Rebuilds the structure from the reader's current section (inverse of
  /// SaveTo), replacing the current contents. The leaves must partition
  /// [0, series_count) in ascending order (LeafIdPartition), and every
  /// first-level entry must be a unique key below 2^segments whose node
  /// is its depth-1, 1-bit word — else an opened tree could route a query
  /// differently than the built one.
  /// Failures latch into the reader's sticky status.
  void LoadFrom(io::IndexReader* reader, size_t series_count);

  /// Shared deserialization tail of the two iSAX-based methods (ADS+,
  /// iSAX2+): validates `options` against the dataset, reads the
  /// "summaries" section into `*full_words` (checking it covers the
  /// collection) and the "tree" section into a fresh tree over that
  /// array. Returns nullptr (with the reader's status latched) on any
  /// failure.
  static std::unique_ptr<IsaxTree> OpenShared(io::IndexReader* reader,
                                              IsaxTreeOptions options,
                                              const core::Dataset& data,
                                              std::vector<uint8_t>* full_words);

 private:
  std::span<const uint8_t> WordOf(core::SeriesId id) const {
    return {full_words_ + static_cast<size_t>(id) * options_.segments,
            options_.segments};
  }
  uint32_t FirstLevelKey(std::span<const uint8_t> full_word) const;
  Node* FirstLevelFor(std::span<const uint8_t> full_word, bool create);
  // The ng fallback: the first-level node with the smallest MINDIST.
  Node* ClosestFirstLevel(std::span<const double> paa_q,
                          size_t points_per_segment) const;
  int ChooseSplitSegment(const Node& leaf) const;

  struct FirstLevelEntry {
    uint32_t key;
    Node* node;
  };

  IsaxTreeOptions options_;
  const uint8_t* full_words_;
  // Ordered map: iteration order (best-first seeding) must be
  // deterministic and identical between a freshly built tree and one
  // rehydrated from disk, or opened indexes could break ties differently
  // than built ones.
  std::map<uint32_t, std::unique_ptr<Node>> first_level_;
  // The same nodes as a flat array in creation order: the ng fallback's
  // scan, which breaks ties by key and so is order-independent.
  std::vector<FirstLevelEntry> first_level_flat_;
};

}  // namespace hydra::index

#endif  // HYDRA_INDEX_ISAX_TREE_H_
