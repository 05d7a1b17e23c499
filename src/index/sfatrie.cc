#include "index/sfatrie.h"

#include <algorithm>
#include <limits>
#include <span>

#include "core/distance.h"
#include "core/simd/kernels.h"
#include "core/traversal.h"
#include "index/leaf_scan.h"
#include "io/index_codec.h"
#include "transform/dft.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::index {

struct SfaTrie::Node {
  // The word prefix this node covers has length `depth`; children are keyed
  // by the symbol at position `depth`.
  int depth = 0;
  bool is_leaf = true;
  std::vector<std::unique_ptr<Node>> children;  // alphabet slots (internal)
  std::vector<core::SeriesId> ids;              // leaf only
  // MBR of member DFT vectors (tight lower bound, "DFT MBRs").
  std::vector<double> mbr_min;
  std::vector<double> mbr_max;
  size_t count = 0;
};

SfaTrie::SfaTrie(SfaTrieOptions options) : options_(options) {}
SfaTrie::~SfaTrie() = default;

template <typename Visit>
void SfaTrie::ForEachNode(Visit&& visit) const {
  std::vector<std::pair<const Node*, int>> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    visit(*node, depth);
    for (const auto& slot : node->children) {
      if (slot != nullptr) stack.push_back({slot.get(), depth + 1});
    }
  }
}

core::BuildStats SfaTrie::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  const size_t dims =
      std::min(options_.word_length,
               transform::MaxPackedCoeffs(data.length(), /*skip_dc=*/true));

  // DFT summaries for every series (one sequential pass), then MCB training
  // on a sample (the original uses sampling; at our scale "all" is cheap).
  dfts_.resize(data.size() * dims);
  for (size_t i = 0; i < data.size(); ++i) {
    transform::PackedRealDft(data[i], /*skip_dc=*/true,
                             std::span<double>(dfts_.data() + i * dims, dims));
  }
  const size_t sample =
      options_.sample_size == 0
          ? data.size()
          : std::min(options_.sample_size, data.size());
  std::vector<std::vector<double>> sample_dfts(sample);
  for (size_t i = 0; i < sample; ++i) {
    // Strided sampling covers the whole collection.
    const size_t idx = i * data.size() / sample;
    sample_dfts[i].assign(dfts_.begin() + idx * dims,
                          dfts_.begin() + (idx + 1) * dims);
  }
  quantizer_ =
      transform::SfaQuantizer::Train(sample_dfts, options_.alphabet,
                                     options_.binning);

  words_.resize(data.size() * dims);
  for (size_t i = 0; i < data.size(); ++i) {
    const auto word = quantizer_.Quantize(
        std::span<const double>(dfts_.data() + i * dims, dims));
    std::copy(word.begin(), word.end(), words_.begin() + i * dims);
  }

  root_ = std::make_unique<Node>();
  root_->mbr_min.assign(dims, std::numeric_limits<double>::infinity());
  root_->mbr_max.assign(dims, -std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < data.size(); ++i) {
    Insert(static_cast<core::SeriesId>(i), root_.get());
  }
  HYDRA_DCHECK(LeavesPartitionIds(
      data.size(), [this](const auto& visit) { ForEachNode(visit); }));
  ForEachNode([this](const Node& n, int) { leaf_count_ += n.is_leaf; });

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  stats.bytes_written = static_cast<int64_t>(data.bytes());
  stats.random_writes = leaf_count_;
  return stats;
}

void SfaTrie::SaveNode(const Node& node, io::IndexWriter* w) {
  w->WriteI32(node.depth);
  w->WriteBool(node.is_leaf);
  w->WriteU64(node.count);
  w->WritePodVector(node.mbr_min);
  w->WritePodVector(node.mbr_max);
  if (node.is_leaf) {
    w->WritePodVector(node.ids);
    return;
  }
  w->WriteU64(node.children.size());
  for (const auto& slot : node.children) {
    w->WriteBool(slot != nullptr);
    if (slot != nullptr) SaveNode(*slot, w);
  }
}

std::unique_ptr<SfaTrie::Node> SfaTrie::LoadNode(
    io::IndexReader* r, LeafIdPartition* leaves) const {
  const io::IndexReader::NodeGuard guard(r);
  const size_t dims = quantizer_.dims();
  auto node = std::make_unique<Node>();
  node->depth = r->ReadI32();
  node->is_leaf = r->ReadBool();
  node->count = r->ReadU64();
  node->mbr_min = r->ReadPodVector<double>();
  node->mbr_max = r->ReadPodVector<double>();
  if (!r->ok()) return node;
  if (node->mbr_min.size() != dims || node->mbr_max.size() != dims) {
    r->Fail("SFA node MBR does not match the word length");
    return node;
  }
  // The descent indexes the query word by `depth`, so an internal node's
  // depth must address a word position (a leaf may sit at depth == dims:
  // the full word is exhausted).
  if (node->depth < 0 || static_cast<size_t>(node->depth) > dims ||
      (!node->is_leaf && static_cast<size_t>(node->depth) == dims)) {
    r->Fail("SFA node depth is out of the word's range");
    return node;
  }
  if (node->is_leaf) {
    node->ids = r->ReadPodVector<core::SeriesId>();
    if (!r->ok()) return node;
    if (const char* error = leaves->Add(node->ids)) {
      r->Fail(std::string("SFA ") + error);
    }
    return node;
  }
  const uint64_t slots = r->ReadU64();
  if (!r->ok()) return node;
  if (slots != static_cast<uint64_t>(options_.alphabet)) {
    r->Fail("SFA internal node fanout does not match the alphabet");
    return node;
  }
  node->children.resize(slots);
  for (uint64_t s = 0; s < slots && r->ok(); ++s) {
    if (r->ReadBool()) node->children[s] = LoadNode(r, leaves);
  }
  return node;
}

void SfaTrie::DoSave(io::IndexWriter* writer) const {
  writer->BeginSection("options");
  writer->WriteU64(options_.word_length);
  writer->WriteI32(options_.alphabet);
  writer->WriteU8(static_cast<uint8_t>(options_.binning));
  writer->WriteU64(options_.leaf_capacity);
  writer->WriteU64(options_.sample_size);
  writer->WriteI64(leaf_count_);
  writer->EndSection();
  writer->BeginSection("quantizer");
  writer->WriteU64(quantizer_.dims());
  for (size_t d = 0; d < quantizer_.dims(); ++d) {
    const auto bins = quantizer_.BreakpointsFor(d);
    writer->WritePodVector(
        std::vector<double>(bins.begin(), bins.end()));
  }
  writer->EndSection();
  writer->BeginSection("summaries");
  writer->WritePodVector(dfts_);
  writer->WritePodVector(words_);
  writer->EndSection();
  writer->BeginSection("tree");
  SaveNode(*root_, writer);
  writer->EndSection();
}

util::Status SfaTrie::DoOpen(io::IndexReader* reader,
                             const core::Dataset& data) {
  reader->EnterSection("options");
  options_.word_length = reader->ReadU64();
  options_.alphabet = reader->ReadI32();
  options_.binning =
      static_cast<transform::SfaQuantizer::Binning>(reader->ReadU8());
  options_.leaf_capacity = reader->ReadU64();
  options_.sample_size = reader->ReadU64();
  reader->ReadI64();  // the saved leaf count; the loaded trie's is counted
  if (reader->ok() && (options_.alphabet < 2 || options_.alphabet > 256 ||
                       options_.leaf_capacity == 0)) {
    reader->Fail("SFA options are out of range");
  }
  reader->EnterSection("quantizer");
  const uint64_t dims = reader->ReadU64();
  std::vector<std::vector<double>> bins;
  for (uint64_t d = 0; d < dims && reader->ok(); ++d) {
    bins.push_back(reader->ReadPodVector<double>());
    if (reader->ok() &&
        bins.back().size() != static_cast<size_t>(options_.alphabet) - 1) {
      reader->Fail("SFA breakpoint table does not match the alphabet");
    }
  }
  if (!reader->ok()) return reader->status();
  quantizer_ =
      transform::SfaQuantizer::FromBreakpoints(std::move(bins),
                                               options_.alphabet);
  reader->EnterSection("summaries");
  dfts_ = reader->ReadPodVector<double>();
  words_ = reader->ReadPodVector<uint8_t>();
  if (reader->ok() && (dfts_.size() != data.size() * quantizer_.dims() ||
                       words_.size() != data.size() * quantizer_.dims())) {
    reader->Fail("SFA summary file does not cover the dataset");
  }
  // Each symbol indexes its dimension's bin edges in the member bounds.
  if (reader->ok() &&
      std::any_of(words_.begin(), words_.end(), [&](uint8_t symbol) {
        return symbol >= options_.alphabet;
      })) {
    reader->Fail("SFA summary word symbol out of range");
  }
  reader->EnterSection("tree");
  if (!reader->ok()) return reader->status();
  data_ = &data;
  LeafIdPartition leaves(data.size());
  root_ = LoadNode(reader, &leaves);
  if (reader->ok()) {
    if (const char* error = leaves.Finish()) {
      reader->Fail(std::string("SFA ") + error);
    }
  }
  leaf_count_ = leaves.leaves();
  return reader->status();
}

void SfaTrie::Insert(core::SeriesId id, Node* node) {
  const size_t dims = quantizer_.dims();
  const double* dft = dfts_.data() + static_cast<size_t>(id) * dims;
  const uint8_t* word = words_.data() + static_cast<size_t>(id) * dims;
  while (true) {
    for (size_t d = 0; d < dims; ++d) {
      node->mbr_min[d] = std::min(node->mbr_min[d], dft[d]);
      node->mbr_max[d] = std::max(node->mbr_max[d], dft[d]);
    }
    ++node->count;
    if (node->is_leaf) break;
    std::unique_ptr<Node>& slot = node->children[word[node->depth]];
    if (slot == nullptr) {
      slot = std::make_unique<Node>();
      slot->depth = node->depth + 1;
      slot->mbr_min.assign(dims, std::numeric_limits<double>::infinity());
      slot->mbr_max.assign(dims, -std::numeric_limits<double>::infinity());
    }
    node = slot.get();
  }
  node->ids.push_back(id);
  if (node->ids.size() > options_.leaf_capacity &&
      static_cast<size_t>(node->depth) < dims) {
    SplitLeaf(node);
  }
}

void SfaTrie::SplitLeaf(Node* leaf) {
  const size_t dims = quantizer_.dims();
  leaf->is_leaf = false;
  leaf->children.resize(static_cast<size_t>(options_.alphabet));
  std::vector<core::SeriesId> ids = std::move(leaf->ids);
  leaf->ids.clear();
  for (const core::SeriesId id : ids) {
    const uint8_t sym =
        words_[static_cast<size_t>(id) * dims + leaf->depth];
    std::unique_ptr<Node>& slot = leaf->children[sym];
    if (slot == nullptr) {
      slot = std::make_unique<Node>();
      slot->depth = leaf->depth + 1;
      slot->mbr_min.assign(dims, std::numeric_limits<double>::infinity());
      slot->mbr_max.assign(dims, -std::numeric_limits<double>::infinity());
    }
    Node* child = slot.get();
    const double* dft = dfts_.data() + static_cast<size_t>(id) * dims;
    for (size_t d = 0; d < dims; ++d) {
      child->mbr_min[d] = std::min(child->mbr_min[d], dft[d]);
      child->mbr_max[d] = std::max(child->mbr_max[d], dft[d]);
    }
    ++child->count;
    child->ids.push_back(id);
  }
  for (auto& slot : leaf->children) {
    if (slot != nullptr && slot->ids.size() > options_.leaf_capacity &&
        static_cast<size_t>(slot->depth) < dims) {
      SplitLeaf(slot.get());
    }
  }
}

double SfaTrie::NodeLowerBound(std::span<const double> q_dft,
                               const Node& node) const {
  // Distance from the query's DFT vector to the node MBR: valid because the
  // packed DFT is orthonormal and truncated.
  return core::simd::ActiveKernels().box_dist_sq(
      q_dft.data(), node.mbr_min.data(), node.mbr_max.data(), q_dft.size());
}

namespace {

/// Member bound from stored SFA words (`quantizer->dims()` symbols per
/// series id): SfaQuantizer::LowerBoundSq, once per member.
struct SfaMemberBound {
  const transform::SfaQuantizer* quantizer;
  std::span<const double> q_dft;
  const uint8_t* words;

  void operator()(std::span<const core::SeriesId> ids, double* out) const {
    const size_t dims = quantizer->dims();
    for (size_t i = 0; i < ids.size(); ++i) {
      out[i] = quantizer->LowerBoundSq(
          q_dft, {words + static_cast<size_t>(ids[i]) * dims, dims});
    }
  }
};

}  // namespace

/// The SFA trie's TreeSearch policy: DFT-MBR lower bounds, the
/// word-routed descent as home, and leaf members bounded by their stored
/// SFA words once the traversal starts.
class SfaTrie::Search : public core::TreePolicy<SfaTrie::Node> {
 public:
  Search(const SfaTrie& trie, core::SeriesView query, size_t workers)
      : trie_(trie),
        order_(core::ScratchQueryOrder(query)),
        q_dft_(transform::PackedRealDft(query, trie.quantizer_.dims(),
                                        /*skip_dc=*/true)),
        raw_(trie.data_, workers) {
    HYDRA_CHECK(trie.root_ != nullptr);
  }

  /// The member bounds need no per-query state beyond q_dft_; this only
  /// switches them on past the home leaf.
  void PrepareMemberBounds() { member_bounds_ = true; }

  int64_t LeafCount() const { return trie_.leaf_count_; }
  bool IsLeaf(const Node& node) const { return node.is_leaf; }
  size_t LeafSize(const Node& leaf) const { return leaf.ids.size(); }

  /// One path along the query's word; where it dead-ends before a leaf,
  /// the child with the smallest MBR lower bound continues it. Null when
  /// no leaf is reachable.
  const Node* Home() const {
    const auto q_word = trie_.quantizer_.Quantize(q_dft_);
    const Node* node = trie_.root_.get();
    while (!node->is_leaf) {
      const Node* next = node->children[q_word[node->depth]].get();
      if (next == nullptr) {
        double best = std::numeric_limits<double>::infinity();
        for (const auto& slot : node->children) {
          if (slot == nullptr || slot->count == 0) continue;
          const double lb = trie_.NodeLowerBound(q_dft_, *slot);
          if (lb < best) {
            best = lb;
            next = slot.get();
          }
        }
        if (next == nullptr) return nullptr;
      }
      node = next;
    }
    return node;
  }

  /// k-NN seeds the root unbounded (the home visit already primed the
  /// bsf); a range query bounds it like any child.
  template <typename W>
  void Seeds(const W& w, const Push& push) const {
    if constexpr (W::kRange) {
      Bound(trie_.root_.get(), w, push);
    } else {
      push({0.0, trie_.root_.get()});
    }
  }

  template <typename W>
  void Expand(const Item& item, const W& w, const Push& push) const {
    for (const auto& slot : item.node->children) {
      if (slot != nullptr) Bound(slot.get(), w, push);
    }
  }

  template <typename W>
  void VerifyLeaf(const Item& leaf, const W& w) {
    io::CountedStorage& raw = raw_[w.index()];
    if (!member_bounds_) {
      ScanLeaf(leaf.node->ids, raw, order_, w);
      return;
    }
    ScanLeaf(leaf.node->ids, raw, order_, w,
             SfaMemberBound{&trie_.quantizer_, q_dft_, trie_.words_.data()});
  }

 private:
  template <typename W>
  void Bound(const Node* node, const W& w, const Push& push) const {
    if (node->count == 0) return;
    const double lb = trie_.NodeLowerBound(q_dft_, *node);
    ++w.stats().lower_bound_computations;
    if (w.Admits(lb)) push({lb, node});
  }

  const SfaTrie& trie_;
  const core::QueryOrder& order_;
  const std::vector<double> q_dft_;
  io::WorkerCursors raw_;
  bool member_bounds_ = false;  // set by PrepareMemberBounds
};

core::QueryResult SfaTrie::DoSearchKnn(core::SeriesView query,
                                       const core::KnnPlan& plan) {
  return core::TreeSearch<Search>::Knn(plan, *this, query,
                                       plan.query_threads);
}

core::QueryResult SfaTrie::DoSearchKnnNg(core::SeriesView query, size_t k) {
  return core::TreeSearch<Search>::Ng(k, *this, query, size_t{1});
}

core::QueryResult SfaTrie::DoSearchRange(core::SeriesView query,
                                         const core::RangePlan& plan) {
  return core::TreeSearch<Search>::Range(plan, *this, query,
                                         plan.query_threads);
}

core::Footprint SfaTrie::footprint() const {
  HYDRA_CHECK(root_ != nullptr);
  const size_t node_bytes =
      sizeof(Node) + 2 * quantizer_.dims() * sizeof(double);
  FootprintSum sum(options_.leaf_capacity);
  ForEachNode([&](const Node& n, int depth) {
    sum.Add(node_bytes + n.ids.size() * sizeof(core::SeriesId), n.is_leaf,
            n.ids.size(), depth);
  });
  core::Footprint fp = sum.Take();
  fp.memory_bytes += static_cast<int64_t>(quantizer_.MemoryBytes() +
                                          words_.size() * sizeof(uint8_t));
  fp.disk_bytes = static_cast<int64_t>(data_->bytes());  // leaf files
  return fp;
}

double SfaTrie::MeanTlb(core::SeriesView query) const {
  HYDRA_CHECK(root_ != nullptr);
  const auto q_dft =
      transform::PackedRealDft(query, quantizer_.dims(), /*skip_dc=*/true);
  // The tight SFA bound (DFT MBRs), the variant the paper evaluates.
  return MeanLeafTlb(query, *data_, [&](const auto& visit) {
    ForEachNode([&](const Node& n, int) {
      if (n.is_leaf) visit(n.ids, [&] { return NodeLowerBound(q_dft, n); });
    });
  });
}

}  // namespace hydra::index
