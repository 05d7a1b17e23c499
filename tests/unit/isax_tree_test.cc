#include <set>

#include <gtest/gtest.h>

#include "gen/random_walk.h"
#include "index/isax_tree.h"
#include "transform/paa.h"

namespace hydra::index {
namespace {

class IsaxTreeTest : public ::testing::Test {
 protected:
  void BuildWords(const core::Dataset& data, size_t segments) {
    words_.resize(data.size() * segments);
    for (size_t i = 0; i < data.size(); ++i) {
      const auto paa = transform::Paa(data[i], segments);
      for (size_t s = 0; s < segments; ++s) {
        words_[i * segments + s] =
            transform::SaxSymbol(paa[s], transform::kMaxSaxBits);
      }
    }
  }

  std::vector<uint8_t> words_;
};

TEST_F(IsaxTreeTest, AllSeriesLandInExactlyOneLeaf) {
  const auto data = gen::RandomWalkDataset(2000, 64, 71);
  const size_t segments = 8;
  BuildWords(data, segments);
  IsaxTree tree({segments, 50}, words_.data());
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<core::SeriesId>(i));
  }
  std::multiset<core::SeriesId> seen;
  tree.ForEachNode([&](const IsaxTree::Node& node) {
    if (node.is_leaf) {
      for (const auto id : node.ids) seen.insert(id);
    }
  });
  EXPECT_EQ(seen.size(), data.size());
  for (core::SeriesId i = 0; i < data.size(); ++i) {
    EXPECT_EQ(seen.count(i), 1u) << "series " << i;
  }
}

TEST_F(IsaxTreeTest, LeafWordsCoverTheirMembers) {
  const auto data = gen::RandomWalkDataset(1000, 64, 72);
  const size_t segments = 8;
  BuildWords(data, segments);
  IsaxTree tree({segments, 30}, words_.data());
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<core::SeriesId>(i));
  }
  tree.ForEachNode([&](const IsaxTree::Node& node) {
    if (!node.is_leaf) return;
    for (const auto id : node.ids) {
      transform::IsaxWord full;
      full.symbols.assign(words_.begin() + id * segments,
                          words_.begin() + (id + 1) * segments);
      full.bits.assign(segments,
                       static_cast<uint8_t>(transform::kMaxSaxBits));
      EXPECT_TRUE(transform::WordCovers(node.word, full));
    }
  });
}

TEST_F(IsaxTreeTest, ApproximateLeafFindsMemberLeaf) {
  const auto data = gen::RandomWalkDataset(500, 64, 73);
  const size_t segments = 8;
  BuildWords(data, segments);
  IsaxTree tree({segments, 20}, words_.data());
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<core::SeriesId>(i));
  }
  for (core::SeriesId i = 0; i < 100; ++i) {
    const auto paa = transform::Paa(data[i], segments);
    IsaxTree::Node* leaf = tree.ApproximateLeaf(paa, 64 / segments);
    ASSERT_NE(leaf, nullptr);
    EXPECT_TRUE(leaf->is_leaf);
    // The series must be in this leaf (it was routed the same way).
    bool found = false;
    for (const auto id : leaf->ids) found |= (id == i);
    EXPECT_TRUE(found) << "series " << i;
  }
}

TEST_F(IsaxTreeTest, ApproximateLeafHandlesUnseenRegion) {
  // A query whose first-level word was never created must still land in a
  // non-empty leaf (fallback by MINDIST).
  const auto data = gen::RandomWalkDataset(50, 64, 173);
  const size_t segments = 8;
  BuildWords(data, segments);
  IsaxTree tree({segments, 20}, words_.data());
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<core::SeriesId>(i));
  }
  // An adversarial word: alternating extreme symbols.
  std::vector<double> paa(segments);
  for (size_t s = 0; s < segments; ++s) paa[s] = (s % 2 == 0) ? 4.0 : -4.0;
  IsaxTree::Node* leaf = tree.ApproximateLeaf(paa, 64 / segments);
  ASSERT_NE(leaf, nullptr);
  EXPECT_FALSE(leaf->ids.empty());
}

TEST_F(IsaxTreeTest, LeavesRespectCapacityWhereSplittable) {
  const auto data = gen::RandomWalkDataset(3000, 64, 74);
  const size_t segments = 8;
  const size_t capacity = 40;
  BuildWords(data, segments);
  IsaxTree tree({segments, capacity}, words_.data());
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<core::SeriesId>(i));
  }
  tree.ForEachNode([&](const IsaxTree::Node& node) {
    if (!node.is_leaf) return;
    bool splittable = false;
    for (const auto bits : node.word.bits) {
      splittable |= bits < transform::kMaxSaxBits;
    }
    if (splittable) {
      EXPECT_LE(node.size(), capacity);
    }
  });
}

TEST_F(IsaxTreeTest, FootprintCountsConsistent) {
  const auto data = gen::RandomWalkDataset(1000, 64, 75);
  const size_t segments = 8;
  BuildWords(data, segments);
  IsaxTree tree({segments, 100}, words_.data());
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<core::SeriesId>(i));
  }
  const core::Footprint fp = tree.StructureFootprint();
  EXPECT_GE(fp.total_nodes, fp.leaf_nodes);
  EXPECT_EQ(fp.leaf_fill_fractions.size(),
            static_cast<size_t>(fp.leaf_nodes));
  EXPECT_EQ(fp.leaf_depths.size(), static_cast<size_t>(fp.leaf_nodes));
  // Every split turns one leaf into an internal node with two children, so
  // internal nodes = leaves - (first-level subtrees).
  const int64_t internals = fp.total_nodes - fp.leaf_nodes;
  EXPECT_LT(internals, fp.leaf_nodes);
}

TEST_F(IsaxTreeTest, SplitLeafCreatesTwoChildren) {
  const auto data = gen::RandomWalkDataset(100, 64, 76);
  const size_t segments = 8;
  BuildWords(data, segments);
  IsaxTree tree({segments, 1000}, words_.data());
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<core::SeriesId>(i));
  }
  // Find the biggest first-level leaf and split it by hand.
  IsaxTree::Node* target = nullptr;
  size_t best = 0;
  tree.ForEachNode([&](const IsaxTree::Node& node) {
    if (node.is_leaf && node.size() > best) {
      best = node.size();
      target = const_cast<IsaxTree::Node*>(&node);
    }
  });
  ASSERT_NE(target, nullptr);
  ASSERT_GE(best, 2u);
  tree.SplitLeaf(target);
  EXPECT_FALSE(target->is_leaf);
  EXPECT_EQ(target->child0->size() + target->child1->size(), best);
}

}  // namespace
}  // namespace hydra::index
