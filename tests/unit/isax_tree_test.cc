#include <filesystem>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "gen/random_walk.h"
#include "index/isax_tree.h"
#include "io/index_codec.h"
#include "transform/paa.h"
#include "util/rng.h"

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

/// The ng fallback's reference: the scalar IsaxMinDistSq over the first
/// level in key order, keeping the first strictly smaller value, then the
/// same covering-word descent ApproximateLeaf takes.
const IsaxTree::Node* ReferenceFallbackLeaf(const IsaxTree& tree,
                                            std::span<const double> paa,
                                            size_t pps) {
  const IsaxTree::Node* node = nullptr;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [key, candidate] : tree.first_level()) {
    const double d = transform::IsaxMinDistSq(paa, candidate->word, pps);
    if (d < best) {
      best = d;
      node = candidate.get();
    }
  }
  if (node == nullptr) return nullptr;
  while (!node->is_leaf) {
    const int s = node->split_segment;
    const uint8_t bit =
        transform::ReduceSymbol(transform::FullResolutionSymbol(paa[s]),
                                node->word.bits[s] + 1) &
        1u;
    const IsaxTree::Node* preferred =
        (bit == 0 ? node->child0 : node->child1).get();
    const IsaxTree::Node* other =
        (bit == 0 ? node->child1 : node->child0).get();
    node = (preferred->is_leaf && preferred->ids.empty() &&
            !(other->is_leaf && other->ids.empty()))
               ? other
               : preferred;
  }
  return node;
}

/// True when no first-level node covers the query's word, so
/// ApproximateLeaf takes its fallback.
bool FirstLevelAbsent(const IsaxTree& tree, std::span<const double> paa) {
  uint32_t key = 0;
  for (const double v : paa) {
    key = (key << 1) |
          transform::ReduceSymbol(transform::FullResolutionSymbol(v), 1);
  }
  return tree.first_level().count(key) == 0;
}

TEST_F(IsaxTreeTest, AllSeriesLandInExactlyOneLeaf) {
  const auto data = gen::RandomWalkDataset(2000, 64, 71);
  const size_t segments = 8;
  BuildWords(data, segments);
  IsaxTree tree({segments, 50}, words_.data());
  for (size_t i = 0; i < data.size(); ++i) {
    tree.Insert(static_cast<core::SeriesId>(i));
  }
  std::multiset<core::SeriesId> seen;
  tree.ForEachNode([&](const IsaxTree::Node& node, int) {
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
  tree.ForEachNode([&](const IsaxTree::Node& node, int) {
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

TEST_F(IsaxTreeTest, FallbackLeafEqualsReferenceArgmin) {
  // Queries whose first-level key is absent must land exactly where the
  // scalar reference argmin descends, in a built tree and in the same tree
  // after a SaveTo/LoadFrom round trip. PAA values of exactly 0.0 sit on
  // the median breakpoint, where both 1-bit terms are 0 and keys tie.
  const std::string file = ::testing::TempDir() + "/isax_fallback.idx";
  for (const size_t segments : {8u, 16u}) {
    SCOPED_TRACE(segments);
    const auto data = gen::RandomWalkDataset(1500, 64, 177);
    const size_t pps = 64 / segments;
    BuildWords(data, segments);
    IsaxTree built({segments, 12}, words_.data());
    for (size_t i = 0; i < data.size(); ++i) {
      built.Insert(static_cast<core::SeriesId>(i));
    }
    io::IndexWriter writer("iSAX tree", io::DatasetFingerprint{});
    writer.BeginSection("tree");
    built.SaveTo(&writer);
    writer.EndSection();
    ASSERT_TRUE(writer.Commit(file).ok());
    io::IndexReader reader;
    ASSERT_TRUE(reader.Load(file).ok());
    ASSERT_TRUE(reader.EnterSection("tree").ok());
    IsaxTree opened({segments, 12}, words_.data());
    opened.LoadFrom(&reader, data.size());
    ASSERT_TRUE(reader.ok()) << reader.status().message();

    util::Rng rng(178);
    const auto breakpoints = transform::SaxBreakpoints::Get().For(1);
    size_t fallbacks = 0;
    for (int q = 0; q < 600; ++q) {
      std::vector<double> paa(segments);
      for (double& v : paa) {
        switch (rng.UniformInt(0, 3)) {
          case 0:
            v = 0.0;  // the median breakpoint: a tie of both 1-bit terms
            break;
          case 1:
            v = std::nextafter(breakpoints[0], rng.UniformInt(0, 1) == 0
                                                   ? -1.0
                                                   : 1.0);
            break;
          default:
            v = rng.Gaussian(0.0, 1.5);
        }
      }
      if (!FirstLevelAbsent(built, paa)) continue;
      ++fallbacks;
      for (const IsaxTree* tree : {&built, &opened}) {
        const IsaxTree::Node* want = ReferenceFallbackLeaf(*tree, paa, pps);
        ASSERT_NE(want, nullptr);
        const IsaxTree::Node* got =
            const_cast<IsaxTree*>(tree)->ApproximateLeaf(paa, pps);
        ASSERT_EQ(got, want) << "query " << q;
      }
      EXPECT_EQ(opened.ApproximateLeaf(paa, pps)->ids,
                built.ApproximateLeaf(paa, pps)->ids)
          << "query " << q;
    }
    EXPECT_GE(fallbacks, 200u);
  }
  std::filesystem::remove(file);
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
  tree.ForEachNode([&](const IsaxTree::Node& node, int) {
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
  tree.ForEachNode([&](const IsaxTree::Node& node, int) {
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
