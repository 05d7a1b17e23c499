#include "index/isax_tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "index/leaf_scan.h"
#include "io/index_codec.h"
#include "transform/paa.h"
#include "util/check.h"

namespace hydra::index {
namespace {

void SaveNode(const IsaxTree::Node& node, io::IndexWriter* w) {
  w->WritePodVector(node.word.symbols);
  w->WritePodVector(node.word.bits);
  w->WriteI32(node.depth);
  w->WriteBool(node.is_leaf);
  w->WriteI32(node.split_segment);
  if (node.is_leaf) {
    w->WritePodVector(node.ids);
  } else {
    SaveNode(*node.child0, w);
    SaveNode(*node.child1, w);
  }
}

std::unique_ptr<IsaxTree::Node> LoadNode(io::IndexReader* r,
                                         size_t segments,
                                         LeafIdPartition* leaves) {
  const io::IndexReader::NodeGuard guard(r);
  auto node = std::make_unique<IsaxTree::Node>();
  node->word.symbols = r->ReadPodVector<uint8_t>();
  node->word.bits = r->ReadPodVector<uint8_t>();
  node->depth = r->ReadI32();
  node->is_leaf = r->ReadBool();
  node->split_segment = r->ReadI32();
  // A latched reader error makes every further read a zero, which would
  // present as an internal node and recurse forever — stop immediately.
  if (!r->ok()) return node;
  if (node->word.symbols.size() != segments ||
      node->word.bits.size() != segments) {
    r->Fail("iSAX node word does not match the segment count");
    return node;
  }
  if (node->is_leaf) {
    node->ids = r->ReadPodVector<core::SeriesId>();
    if (!r->ok()) return node;
    if (const char* error = leaves->Add(node->ids)) {
      r->Fail(std::string("iSAX ") + error);
    }
  } else {
    if (node->split_segment < 0 ||
        node->split_segment >= static_cast<int>(segments)) {
      r->Fail("iSAX internal node has an invalid split segment");
      return node;
    }
    node->child0 = LoadNode(r, segments, leaves);
    node->child1 = LoadNode(r, segments, leaves);
  }
  return node;
}

}  // namespace

IsaxTree::IsaxTree(IsaxTreeOptions options, const uint8_t* full_words)
    : options_(options), full_words_(full_words) {
  HYDRA_CHECK(options_.segments > 0 && options_.segments <= kMaxSegments);
  HYDRA_CHECK(options_.leaf_capacity > 0);
  HYDRA_CHECK(full_words != nullptr);
}

uint32_t IsaxTree::FirstLevelKey(std::span<const uint8_t> full_word) const {
  uint32_t key = 0;
  for (size_t s = 0; s < options_.segments; ++s) {
    key = (key << 1) | (transform::ReduceSymbol(full_word[s], 1) & 1u);
  }
  return key;
}

IsaxTree::Node* IsaxTree::FirstLevelFor(std::span<const uint8_t> full_word,
                                        bool create) {
  const uint32_t key = FirstLevelKey(full_word);
  auto it = first_level_.find(key);
  if (it != first_level_.end()) return it->second.get();
  if (!create) return nullptr;
  auto node = std::make_unique<Node>();
  node->word.symbols.resize(options_.segments);
  node->word.bits.assign(options_.segments, 1);
  for (size_t s = 0; s < options_.segments; ++s) {
    node->word.symbols[s] = transform::ReduceSymbol(full_word[s], 1);
  }
  Node* raw = node.get();
  first_level_.emplace(key, std::move(node));
  first_level_flat_.push_back({key, raw});
  return raw;
}

void IsaxTree::Insert(core::SeriesId id) {
  const auto word = WordOf(id);
  Node* node = FirstLevelFor(word, /*create=*/true);
  while (!node->is_leaf) {
    const int s = node->split_segment;
    const int child_bits = node->word.bits[s] + 1;
    const uint8_t bit = transform::ReduceSymbol(word[s], child_bits) & 1u;
    node = (bit == 0 ? node->child0 : node->child1).get();
  }
  node->ids.push_back(id);
  if (node->size() > options_.leaf_capacity) SplitLeaf(node);
}

int IsaxTree::ChooseSplitSegment(const Node& leaf) const {
  // The iSAX 2.0 policy: split on the segment whose next bit divides the
  // leaf most evenly; a small penalty steers away from over-refining one
  // segment (ties broken toward the coarsest).
  int best = -1;
  double best_score = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < options_.segments; ++s) {
    if (leaf.word.bits[s] >= transform::kMaxSaxBits) continue;
    const int child_bits = leaf.word.bits[s] + 1;
    size_t ones = 0;
    for (const core::SeriesId id : leaf.ids) {
      ones += transform::ReduceSymbol(WordOf(id)[s], child_bits) & 1u;
    }
    const double balance =
        std::fabs(static_cast<double>(ones) -
                  static_cast<double>(leaf.size()) / 2.0);
    const double score =
        balance + static_cast<double>(leaf.word.bits[s]) * 0.25;
    if (score < best_score) {
      best_score = score;
      best = static_cast<int>(s);
    }
  }
  return best;
}

void IsaxTree::SplitLeaf(Node* leaf) {
  const int s = ChooseSplitSegment(*leaf);
  if (s < 0) return;  // maximum resolution reached; leaf stays oversized

  const int child_bits = leaf->word.bits[s] + 1;
  auto make_child = [&](uint8_t bit) {
    auto child = std::make_unique<Node>();
    child->word = leaf->word;
    child->word.bits[s] = static_cast<uint8_t>(child_bits);
    child->word.symbols[s] =
        static_cast<uint8_t>((leaf->word.symbols[s] << 1) | bit);
    child->depth = leaf->depth + 1;
    return child;
  };
  leaf->child0 = make_child(0);
  leaf->child1 = make_child(1);
  for (const core::SeriesId id : leaf->ids) {
    const uint8_t bit = transform::ReduceSymbol(WordOf(id)[s], child_bits) & 1u;
    (bit == 0 ? leaf->child0 : leaf->child1)->ids.push_back(id);
  }
  leaf->ids.clear();
  leaf->ids.shrink_to_fit();
  leaf->is_leaf = false;
  leaf->split_segment = s;
  // An uneven split may leave one child overflowing; recurse on it.
  for (Node* child : {leaf->child0.get(), leaf->child1.get()}) {
    if (child->size() > options_.leaf_capacity) SplitLeaf(child);
  }
}

IsaxTree::Node* IsaxTree::ClosestFirstLevel(std::span<const double> paa_q,
                                            size_t points_per_segment) const {
  // A key's MINDIST sums one 1-bit term per segment (its bits, most
  // significant first) in segment order, then scales. The partial sums of
  // the first `prefix` segments are memoized for every bit pattern (level
  // k extends level k - 1 by one term, so each entry is exactly the
  // sequential partial sum); a key whose scaled prefix already exceeds the
  // best is dropped, the rest add their remaining terms. Ties go to the
  // smallest key, the first minimum in key order.
  constexpr size_t kMaxPrefix = 10;
  const size_t segments = options_.segments;
  const size_t prefix = std::min(segments, kMaxPrefix);
  std::array<double, 2 * kMaxSegments> terms{};
  transform::OneBitTermsSq(paa_q, terms.data());
  // Level k (its 2^k partial sums) occupies entries [2^k - 1, 2^(k+1) - 1).
  std::array<double, (size_t{2} << kMaxPrefix) - 1> partial{};
  for (size_t k = 1; k <= prefix; ++k) {
    const double* shorter = partial.data() + ((size_t{1} << (k - 1)) - 1);
    double* level = partial.data() + ((size_t{1} << k) - 1);
    for (size_t bits = 0; bits < (size_t{1} << (k - 1)); ++bits) {
      level[2 * bits] = shorter[bits] + terms[2 * (k - 1)];
      level[2 * bits + 1] = shorter[bits] + terms[2 * (k - 1) + 1];
    }
  }
  const double* prefix_sum = partial.data() + ((size_t{1} << prefix) - 1);

  const double pps = static_cast<double>(points_per_segment);
  double best = std::numeric_limits<double>::infinity();
  uint32_t best_key = 0;
  Node* closest = nullptr;
  for (const FirstLevelEntry& entry : first_level_flat_) {
    double acc = prefix_sum[entry.key >> (segments - prefix)];
    if (acc * pps > best) continue;  // the remaining terms only add
    for (size_t s = prefix; s < segments; ++s) {
      acc += terms[2 * s + ((entry.key >> (segments - 1 - s)) & 1u)];
    }
    const double d = acc * pps;
    if (d < best || (d == best && entry.key < best_key)) {
      best = d;
      best_key = entry.key;
      closest = entry.node;
    }
  }
  return closest;
}

IsaxTree::Node* IsaxTree::ApproximateLeaf(std::span<const double> paa_q,
                                          size_t points_per_segment) {
  if (first_level_.empty()) return nullptr;
  HYDRA_DCHECK(paa_q.size() == options_.segments);
  std::array<uint8_t, kMaxSegments> symbols{};
  for (size_t s = 0; s < paa_q.size(); ++s) {
    symbols[s] = transform::FullResolutionSymbol(paa_q[s]);
  }
  const std::span<const uint8_t> full_word(symbols.data(), paa_q.size());
  Node* node = FirstLevelFor(full_word, /*create=*/false);
  if (node == nullptr) {
    // No covering first-level node: fall back to the closest existing one.
    node = ClosestFirstLevel(paa_q, points_per_segment);
  }
  while (!node->is_leaf) {
    const int s = node->split_segment;
    const int child_bits = node->word.bits[s] + 1;
    const uint8_t bit = transform::ReduceSymbol(full_word[s], child_bits) & 1u;
    Node* preferred = (bit == 0 ? node->child0 : node->child1).get();
    Node* other = (bit == 0 ? node->child1 : node->child0).get();
    // Avoid dead-ending in an empty leaf when the sibling has data.
    node = (preferred->is_leaf && preferred->ids.empty() &&
            !(other->is_leaf && other->ids.empty()))
               ? other
               : preferred;
  }
  return node;
}

void IsaxTree::SaveTo(io::IndexWriter* writer) const {
  writer->WriteU64(first_level_.size());
  for (const auto& [key, node] : first_level_) {
    writer->WriteU32(key);
    SaveNode(*node, writer);
  }
}

void IsaxTree::LoadFrom(io::IndexReader* reader, size_t series_count) {
  first_level_.clear();
  first_level_flat_.clear();
  const size_t segments = options_.segments;
  const uint64_t count = reader->ReadU64();
  LeafIdPartition leaves(series_count);
  for (uint64_t i = 0; i < count && reader->ok(); ++i) {
    const uint32_t key = reader->ReadU32();
    auto node = LoadNode(reader, segments, &leaves);
    if (!reader->ok()) break;
    if ((uint64_t{key} >> segments) != 0) {
      reader->Fail("iSAX first-level key exceeds the segment count");
      break;
    }
    if (first_level_.count(key) != 0) {
      reader->Fail("iSAX first-level key is repeated");
      break;
    }
    if (node->depth != 1) {
      reader->Fail("iSAX first-level node is not at depth 1");
      break;
    }
    for (size_t s = 0; s < segments; ++s) {
      if (node->word.bits[s] != 1 ||
          node->word.symbols[s] != ((key >> (segments - 1 - s)) & 1u)) {
        reader->Fail("iSAX first-level node word does not match its key");
        break;
      }
    }
    if (!reader->ok()) break;
    first_level_flat_.push_back({key, node.get()});
    first_level_.emplace(key, std::move(node));
  }
  if (reader->ok()) {
    if (const char* error = leaves.Finish()) {
      reader->Fail(std::string("iSAX ") + error);
    }
  }
}

std::unique_ptr<IsaxTree> IsaxTree::OpenShared(
    io::IndexReader* reader, IsaxTreeOptions options,
    const core::Dataset& data, std::vector<uint8_t>* full_words) {
  if (reader->ok() &&
      (options.segments == 0 || options.segments > kMaxSegments ||
       options.leaf_capacity == 0 ||
       data.length() % options.segments != 0)) {
    reader->Fail("iSAX options are inconsistent with the dataset");
  }
  reader->EnterSection("summaries");
  *full_words = reader->ReadPodVector<uint8_t>();
  if (reader->ok() &&
      (full_words->empty() ||
       full_words->size() != data.size() * options.segments)) {
    // Empty is rejected too: the tree constructor requires a real word
    // array, and no index can legitimately cover zero series.
    reader->Fail("iSAX summary file does not cover the dataset");
  }
  reader->EnterSection("tree");
  if (!reader->ok()) return nullptr;
  auto tree = std::make_unique<IsaxTree>(options, full_words->data());
  tree->LoadFrom(reader, data.size());
  return tree;
}

double IsaxTree::MeanTlb(core::SeriesView query,
                         const core::Dataset& data) const {
  const auto paa = transform::Paa(query, options_.segments);
  const size_t pps = query.size() / options_.segments;
  return MeanLeafTlb(query, data, [&](const auto& visit) {
    ForEachNode([&](const Node& node, int) {
      if (!node.is_leaf) return;
      visit(node.ids,
            [&] { return transform::IsaxMinDistSq(paa, node.word, pps); });
    });
  });
}

core::Footprint IsaxTree::StructureFootprint() const {
  const size_t node_bytes =
      sizeof(Node) + 2 * options_.segments;  // word symbols + bits
  FootprintSum sum(options_.leaf_capacity);
  ForEachNode([&](const Node& node, int depth) {
    sum.Add(node_bytes + node.ids.size() * sizeof(core::SeriesId),
            node.is_leaf, node.size(), depth);
  });
  core::Footprint fp = sum.Take();
  fp.memory_bytes += static_cast<int64_t>(first_level_flat_.size() *
                                          sizeof(FirstLevelEntry));
  return fp;
}

}  // namespace hydra::index
