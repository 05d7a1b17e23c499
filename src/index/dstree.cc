#include "index/dstree.h"

#include <algorithm>
#include <cmath>

#include "core/distance.h"
#include "core/traversal.h"
#include "index/leaf_scan.h"
#include "io/index_codec.h"
#include "transform/isax.h"
#include "transform/paa.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::index {

using transform::SegmentRange;
using transform::Segmentation;
using transform::SegmentStats;

struct DsTree::Node {
  Segmentation seg;
  std::vector<SegmentRange> ranges;  // envelope of the subtree, over `seg`
  size_t count = 0;
  int depth = 0;
  bool is_leaf = true;
  // Split specification (internal nodes): children share `child_seg`; the
  // routing test compares a series' stat on `split_segment` to
  // `split_value`.
  Segmentation child_seg;
  int split_segment = -1;
  bool split_on_mean = true;
  double split_value = 0.0;
  std::unique_ptr<Node> left;   // stat <= split_value
  std::unique_ptr<Node> right;  // stat >  split_value
  std::vector<core::SeriesId> ids;  // leaf only
};

DsTree::DsTree(DsTreeOptions options) : options_(options) {}
DsTree::~DsTree() = default;

DsTree::Prefix DsTree::ComputePrefix(core::SeriesView x) {
  Prefix p;
  p.sum.resize(x.size() + 1, 0.0);
  p.sum_sq.resize(x.size() + 1, 0.0);
  for (size_t i = 0; i < x.size(); ++i) {
    p.sum[i + 1] = p.sum[i] + x[i];
    p.sum_sq[i + 1] = p.sum_sq[i] + static_cast<double>(x[i]) * x[i];
  }
  return p;
}

SegmentStats DsTree::StatOf(const Prefix& p, uint32_t begin, uint32_t end) {
  const double len = static_cast<double>(end - begin);
  const double mean = (p.sum[end] - p.sum[begin]) / len;
  const double var =
      std::max(0.0, (p.sum_sq[end] - p.sum_sq[begin]) / len - mean * mean);
  return {mean, std::sqrt(var)};
}

std::vector<SegmentStats> DsTree::StatsOn(const Prefix& p,
                                          const Segmentation& seg) {
  std::vector<SegmentStats> stats(seg.segments());
  for (size_t s = 0; s < seg.segments(); ++s) {
    stats[s] = StatOf(p, seg.begin_of(s), seg.ends[s]);
  }
  return stats;
}

namespace {

// "Size" of a node's envelope: how loose its lower bound can be. The QoS
// heuristic minimizes the count-weighted envelope size of the children.
double BoxSize(const std::vector<SegmentRange>& ranges,
               const Segmentation& seg) {
  double acc = 0.0;
  for (size_t s = 0; s < seg.segments(); ++s) {
    const double dm = ranges[s].max_mean - ranges[s].min_mean;
    const double ds = ranges[s].max_std - ranges[s].min_std;
    acc += static_cast<double>(seg.length_of(s)) * (dm * dm + ds * ds);
  }
  return acc;
}

// Most segments of a per-series iSAX word (one byte each).
constexpr size_t kMaxWordSegments = 16;

// The segment count of the per-series iSAX words at `length`: the largest
// divisor of `length` that is at most kMaxWordSegments.
size_t WordSegments(size_t length) {
  size_t segments = std::clamp<size_t>(length, 1, kMaxWordSegments);
  while (length % segments != 0) --segments;
  return segments;
}

// True when `seg` cuts [0, length) into non-empty segments: its ends are
// strictly increasing, inside (0, length], and end at length — what every
// StatOf over it needs to stay inside a series' prefix sums.
bool CoversLength(const Segmentation& seg, size_t length) {
  if (seg.ends.empty() || seg.ends.back() != length) return false;
  uint32_t begin = 0;
  for (const uint32_t end : seg.ends) {
    if (end <= begin) return false;
    begin = end;
  }
  return true;
}

// A candidate split under evaluation.
struct Candidate {
  Segmentation child_seg;
  int split_segment = -1;
  bool split_on_mean = true;
  double split_value = 0.0;
  double qos = std::numeric_limits<double>::infinity();
};

}  // namespace

template <typename Visit>
void DsTree::ForEachNode(Visit&& visit) const {
  std::vector<std::pair<const Node*, int>> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    visit(*node, depth);
    if (!node->is_leaf) {
      stack.push_back({node->left.get(), depth + 1});
      stack.push_back({node->right.get(), depth + 1});
    }
  }
}

core::BuildStats DsTree::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  HYDRA_CHECK(options_.initial_segments >= 1);
  HYDRA_CHECK(options_.max_segments >= options_.initial_segments);

  root_ = std::make_unique<Node>();
  root_->seg = Segmentation::Uniform(data.length(), options_.initial_segments);
  root_->ranges.resize(root_->seg.segments());

  for (size_t i = 0; i < data.size(); ++i) {
    const Prefix p = ComputePrefix(data[i]);
    Insert(static_cast<core::SeriesId>(i), p);
  }
  HYDRA_DCHECK(LeavesPartitionIds(
      data.size(), [this](const auto& visit) { ForEachNode(visit); }));
  ForEachNode([this](const Node& n, int) { leaf_count_ += n.is_leaf; });
  const size_t segments = WordSegments(data.length());
  words_.resize(data.size() * segments);
  for (size_t i = 0; i < data.size(); ++i) {
    transform::EncodeFullWord(data[i], segments,
                              words_.data() + i * segments);
  }

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  // Leaf files hold the clustered raw series.
  stats.bytes_written = static_cast<int64_t>(data.bytes());
  stats.random_writes = leaf_count_;
  return stats;
}

void DsTree::SaveNode(const Node& node, io::IndexWriter* w) {
  w->WritePodVector(node.seg.ends);
  w->WritePodVector(node.ranges);
  w->WriteU64(node.count);
  w->WriteI32(node.depth);
  w->WriteBool(node.is_leaf);
  if (node.is_leaf) {
    w->WritePodVector(node.ids);
    return;
  }
  w->WritePodVector(node.child_seg.ends);
  w->WriteI32(node.split_segment);
  w->WriteBool(node.split_on_mean);
  w->WriteDouble(node.split_value);
  SaveNode(*node.left, w);
  SaveNode(*node.right, w);
}

std::unique_ptr<DsTree::Node> DsTree::LoadNode(io::IndexReader* r,
                                               size_t series_length,
                                               LeafIdPartition* leaves) {
  const io::IndexReader::NodeGuard guard(r);
  auto node = std::make_unique<Node>();
  node->seg.ends = r->ReadPodVector<uint32_t>();
  node->ranges = r->ReadPodVector<SegmentRange>();
  node->count = r->ReadU64();
  node->depth = r->ReadI32();
  node->is_leaf = r->ReadBool();
  // Stop on a latched error before recursing (zeroed reads would present
  // as an endless chain of internal nodes).
  if (!r->ok()) return node;
  if (!CoversLength(node->seg, series_length) ||
      node->ranges.size() != node->seg.segments()) {
    r->Fail("DSTree node segmentation does not cover the series length");
    return node;
  }
  if (node->is_leaf) {
    node->ids = r->ReadPodVector<core::SeriesId>();
    if (!r->ok()) return node;
    if (const char* error = leaves->Add(node->ids)) {
      r->Fail(std::string("DSTree ") + error);
    }
    return node;
  }
  node->child_seg.ends = r->ReadPodVector<uint32_t>();
  node->split_segment = r->ReadI32();
  node->split_on_mean = r->ReadBool();
  node->split_value = r->ReadDouble();
  if (!r->ok()) return node;
  if (!CoversLength(node->child_seg, series_length)) {
    r->Fail("DSTree node segmentation does not cover the series length");
    return node;
  }
  if (node->split_segment < 0 ||
      static_cast<size_t>(node->split_segment) >=
          node->child_seg.segments()) {
    r->Fail("DSTree internal node has an invalid split segment");
    return node;
  }
  node->left = LoadNode(r, series_length, leaves);
  node->right = LoadNode(r, series_length, leaves);
  return node;
}

void DsTree::DoSave(io::IndexWriter* writer) const {
  static_assert(std::is_trivially_copyable_v<SegmentRange>);
  writer->BeginSection("options");
  writer->WriteU64(options_.initial_segments);
  writer->WriteU64(options_.max_segments);
  writer->WriteU64(options_.leaf_capacity);
  writer->WriteI64(leaf_count_);
  writer->EndSection();
  writer->BeginSection("summaries");
  writer->WritePodVector(words_);
  writer->EndSection();
  writer->BeginSection("tree");
  SaveNode(*root_, writer);
  writer->EndSection();
}

util::Status DsTree::DoOpen(io::IndexReader* reader,
                            const core::Dataset& data) {
  reader->EnterSection("options");
  options_.initial_segments = reader->ReadU64();
  options_.max_segments = reader->ReadU64();
  options_.leaf_capacity = reader->ReadU64();
  reader->ReadI64();  // the saved leaf count; the loaded tree's is counted
  reader->EnterSection("summaries");
  words_ = reader->ReadPodVector<uint8_t>();
  if (reader->ok() &&
      words_.size() != data.size() * WordSegments(data.length())) {
    reader->Fail("DSTree summary words do not cover the dataset");
  }
  reader->EnterSection("tree");
  if (!reader->ok()) return reader->status();
  data_ = &data;
  LeafIdPartition leaves(data.size());
  root_ = LoadNode(reader, data.length(), &leaves);
  if (reader->ok()) {
    if (const char* error = leaves.Finish()) {
      reader->Fail(std::string("DSTree ") + error);
    }
  }
  leaf_count_ = leaves.leaves();
  return reader->status();
}

void DsTree::Insert(core::SeriesId id, const Prefix& p) {
  Node* node = root_.get();
  while (true) {
    // Extend the envelope of every node on the path.
    const auto stats = StatsOn(p, node->seg);
    for (size_t s = 0; s < stats.size(); ++s) {
      node->ranges[s].Extend(stats[s], node->count == 0);
    }
    ++node->count;
    if (node->is_leaf) break;
    const auto& cs = node->child_seg;
    const SegmentStats st =
        StatOf(p, cs.begin_of(node->split_segment),
               cs.ends[node->split_segment]);
    const double v = node->split_on_mean ? st.mean : st.stddev;
    node = (v <= node->split_value ? node->left : node->right).get();
  }
  node->ids.push_back(id);
  if (node->ids.size() > options_.leaf_capacity) SplitLeaf(node);
}

void DsTree::SplitLeaf(Node* leaf) {
  const size_t count = leaf->ids.size();
  std::vector<Prefix> prefixes(count);
  for (size_t i = 0; i < count; ++i) {
    prefixes[i] = ComputePrefix((*data_)[leaf->ids[i]]);
  }

  // Enumerate candidate child segmentations: the current one (horizontal
  // splits) and, if allowed, each segment refined into two halves
  // (vertical splits).
  std::vector<Segmentation> child_segs;
  child_segs.push_back(leaf->seg);
  if (leaf->seg.segments() < options_.max_segments) {
    for (size_t s = 0; s < leaf->seg.segments(); ++s) {
      const uint32_t b = leaf->seg.begin_of(s);
      const uint32_t e = leaf->seg.ends[s];
      if (e - b < 2) continue;
      Segmentation refined = leaf->seg;
      refined.ends.insert(refined.ends.begin() + static_cast<long>(s),
                          (b + e) / 2);
      child_segs.push_back(std::move(refined));
    }
  }

  // Horizontal and vertical candidates are scored separately; a vertical
  // split (which refines the segmentation and deepens every future lower
  // bound computation) is only taken when it is clearly better than the
  // best horizontal one.
  Candidate best_horizontal;
  Candidate best_vertical;
  std::vector<double> values(count);
  std::vector<SegmentStats> stats;  // count x segments of `cs`, row-major
  for (const Segmentation& cs : child_segs) {
    const bool is_horizontal = cs.segments() == leaf->seg.segments();
    const size_t segs = cs.segments();
    stats.resize(count * segs);
    for (size_t i = 0; i < count; ++i) {
      for (size_t t = 0; t < segs; ++t) {
        stats[i * segs + t] = StatOf(prefixes[i], cs.begin_of(t), cs.ends[t]);
      }
    }
    // Box sizes are only comparable within one segmentation; normalize by
    // the parent's box over the same candidate segmentation so vertical
    // refinements compete fairly with horizontal splits.
    std::vector<SegmentRange> parent(segs);
    for (size_t i = 0; i < count; ++i) {
      for (size_t t = 0; t < segs; ++t) {
        parent[t].Extend(stats[i * segs + t], i == 0);
      }
    }
    const double parent_box = BoxSize(parent, cs);
    for (size_t s = 0; s < segs; ++s) {
      for (const bool on_mean : {true, false}) {
        for (size_t i = 0; i < count; ++i) {
          const SegmentStats& st = stats[i * segs + s];
          values[i] = on_mean ? st.mean : st.stddev;
        }
        // Median split value balances the children.
        std::vector<double> sorted = values;
        std::nth_element(sorted.begin(), sorted.begin() + count / 2,
                         sorted.end());
        const double split_value = sorted[count / 2];
        // Evaluate the QoS: count-weighted envelope size of the children.
        std::vector<SegmentRange> lo(segs);
        std::vector<SegmentRange> hi(segs);
        size_t n_lo = 0;
        size_t n_hi = 0;
        for (size_t i = 0; i < count; ++i) {
          const bool goes_lo = values[i] <= split_value;
          auto& ranges = goes_lo ? lo : hi;
          size_t& n = goes_lo ? n_lo : n_hi;
          for (size_t t = 0; t < segs; ++t) {
            ranges[t].Extend(stats[i * segs + t], n == 0);
          }
          ++n;
        }
        if (n_lo == 0 || n_hi == 0) continue;  // degenerate
        if (parent_box <= 0.0) continue;
        const double qos =
            (static_cast<double>(n_lo) * BoxSize(lo, cs) +
             static_cast<double>(n_hi) * BoxSize(hi, cs)) /
            (static_cast<double>(count) * parent_box);
        Candidate& best = is_horizontal ? best_horizontal : best_vertical;
        if (qos < best.qos) {
          best.child_seg = cs;
          best.split_segment = static_cast<int>(s);
          best.split_on_mean = on_mean;
          best.split_value = split_value;
          best.qos = qos;
        }
      }
    }
  }
  constexpr double kVerticalMargin = 0.6;
  const bool take_vertical =
      best_vertical.split_segment >= 0 &&
      (best_horizontal.split_segment < 0 ||
       best_vertical.qos < kVerticalMargin * best_horizontal.qos);
  Candidate& best = take_vertical ? best_vertical : best_horizontal;
  if (best.split_segment < 0) return;  // all candidates degenerate

  leaf->child_seg = best.child_seg;
  leaf->split_segment = best.split_segment;
  leaf->split_on_mean = best.split_on_mean;
  leaf->split_value = best.split_value;
  auto make_child = [&] {
    auto child = std::make_unique<Node>();
    child->seg = best.child_seg;
    child->ranges.resize(best.child_seg.segments());
    child->depth = leaf->depth + 1;
    return child;
  };
  leaf->left = make_child();
  leaf->right = make_child();
  for (size_t i = 0; i < count; ++i) {
    const SegmentStats st =
        StatOf(prefixes[i], best.child_seg.begin_of(best.split_segment),
               best.child_seg.ends[best.split_segment]);
    const double v = best.split_on_mean ? st.mean : st.stddev;
    Node* child = (v <= best.split_value ? leaf->left : leaf->right).get();
    const auto child_stats = StatsOn(prefixes[i], child->seg);
    for (size_t t = 0; t < child_stats.size(); ++t) {
      child->ranges[t].Extend(child_stats[t], child->count == 0);
    }
    ++child->count;
    child->ids.push_back(leaf->ids[i]);
  }
  leaf->ids.clear();
  leaf->ids.shrink_to_fit();
  leaf->is_leaf = false;
}

/// DSTree's TreeSearch policy: EAPCA envelope lower bounds over each
/// node's own segmentation, the split-routed descent as home, and leaf
/// members bounded by their iSAX words once the traversal starts.
class DsTree::Search : public core::TreePolicy<DsTree::Node> {
 public:
  Search(const DsTree& tree, core::SeriesView query, size_t workers)
      : tree_(tree),
        query_(query),
        order_(core::ScratchQueryOrder(query)),
        qp_(ComputePrefix(query)),
        raw_(tree.data_, workers) {
    HYDRA_CHECK(tree.root_ != nullptr);
  }

  /// Fills the calling thread's iSAX table for the query's PAA.
  void PrepareMemberBounds() {
    const size_t segments = WordSegments(query_.size());
    double paa[kMaxWordSegments];
    transform::Paa(query_, segments, paa);
    transform::IsaxQueryTable& table = transform::ScratchIsaxQueryTable();
    table.Reset({paa, segments}, query_.size() / segments);
    table_ = &table;
  }

  int64_t LeafCount() const { return tree_.leaf_count_; }
  bool IsLeaf(const Node& node) const { return node.is_leaf; }
  size_t LeafSize(const Node& leaf) const { return leaf.ids.size(); }

  /// One root-to-leaf path, routed by each node's split test.
  const Node* Home() const {
    const Node* node = tree_.root_.get();
    while (!node->is_leaf) {
      const auto& cs = node->child_seg;
      const SegmentStats st = StatOf(qp_, cs.begin_of(node->split_segment),
                                     cs.ends[node->split_segment]);
      const double v = node->split_on_mean ? st.mean : st.stddev;
      node = (v <= node->split_value ? node->left : node->right).get();
    }
    return node;
  }

  /// k-NN seeds the root unbounded (the home visit already primed the
  /// bsf); a range query bounds it like any child.
  template <typename W>
  void Seeds(const W& w, const Push& push) const {
    if constexpr (W::kRange) {
      Bound(tree_.root_.get(), w, push);
    } else {
      push({0.0, tree_.root_.get()});
    }
  }

  template <typename W>
  void Expand(const Item& item, const W& w, const Push& push) const {
    Bound(item.node->left.get(), w, push);
    Bound(item.node->right.get(), w, push);
  }

  template <typename W>
  void VerifyLeaf(const Item& leaf, const W& w) {
    io::CountedStorage& raw = raw_[w.index()];
    if (table_ == nullptr) {
      ScanLeaf(leaf.node->ids, raw, order_, w);
    } else {
      ScanLeaf(leaf.node->ids, raw, order_, w,
               IsaxMemberBound{table_, tree_.words_.data()});
    }
  }

 private:
  template <typename W>
  void Bound(const Node* node, const W& w, const Push& push) const {
    if (node->count == 0) return;
    const double lb = transform::EapcaNodeLbSq(StatsOn(qp_, node->seg),
                                               node->ranges, node->seg);
    ++w.stats().lower_bound_computations;
    if (w.Admits(lb)) push({lb, node});
  }

  const DsTree& tree_;
  const core::SeriesView query_;
  const core::QueryOrder& order_;
  const Prefix qp_;
  io::WorkerCursors raw_;
  // Set by PrepareMemberBounds (null: the home leaf and the ng path).
  const transform::IsaxQueryTable* table_ = nullptr;
};

core::QueryResult DsTree::DoSearchKnn(core::SeriesView query,
                                      const core::KnnPlan& plan) {
  return core::TreeSearch<Search>::Knn(plan, *this, query,
                                       plan.query_threads);
}

core::QueryResult DsTree::DoSearchKnnNg(core::SeriesView query, size_t k) {
  return core::TreeSearch<Search>::Ng(k, *this, query, size_t{1});
}

core::QueryResult DsTree::DoSearchRange(core::SeriesView query,
                                        const core::RangePlan& plan) {
  return core::TreeSearch<Search>::Range(plan, *this, query,
                                         plan.query_threads);
}

core::Footprint DsTree::footprint() const {
  HYDRA_CHECK(root_ != nullptr);
  FootprintSum sum(options_.leaf_capacity);
  ForEachNode([&](const Node& n, int depth) {
    sum.Add(sizeof(Node) + n.ranges.size() * sizeof(SegmentRange) +
                n.seg.ends.size() * sizeof(uint32_t) +
                n.ids.size() * sizeof(core::SeriesId),
            n.is_leaf, n.ids.size(), depth);
  });
  core::Footprint fp = sum.Take();
  fp.memory_bytes += static_cast<int64_t>(words_.size());
  fp.disk_bytes = static_cast<int64_t>(data_->bytes());  // leaf files
  return fp;
}

double DsTree::MeanTlb(core::SeriesView query) const {
  HYDRA_CHECK(root_ != nullptr);
  const Prefix qp = ComputePrefix(query);
  return MeanLeafTlb(query, *data_, [&](const auto& visit) {
    ForEachNode([&](const Node& n, int) {
      if (!n.is_leaf) return;
      visit(n.ids, [&] {
        return transform::EapcaNodeLbSq(StatsOn(qp, n.seg), n.ranges, n.seg);
      });
    });
  });
}

}  // namespace hydra::index
