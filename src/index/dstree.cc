#include "index/dstree.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

void DsTree::Prefix::Assign(core::SeriesView x) {
  sum.resize(x.size() + 1);
  sum_sq.resize(x.size() + 1);
  double a = 0.0;
  double q = 0.0;
  sum[0] = sum_sq[0] = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    a = a + x[i];
    q = q + static_cast<double>(x[i]) * x[i];
    sum[i + 1] = a;
    sum_sq[i + 1] = q;
  }
}

namespace {

// Mean and stddev of `len` points whose values sum to `sum` and whose
// squares sum to `sum_sq` (each a difference of two prefix sums). Every
// segment statistic of the build and the query goes through here.
SegmentStats SegmentStatsOf(double sum, double sum_sq, double len) {
  const double mean = sum / len;
  const double var = std::max(0.0, sum_sq / len - mean * mean);
  return {mean, std::sqrt(var)};
}

}  // namespace

SegmentStats DsTree::StatOf(const Prefix& p, uint32_t begin, uint32_t end) {
  return SegmentStatsOf(p.sum[end] - p.sum[begin],
                        p.sum_sq[end] - p.sum_sq[begin],
                        static_cast<double>(end - begin));
}

void DsTree::StatsOn(const Prefix& p, const Segmentation& seg,
                     SegmentStats* out) {
  for (size_t s = 0; s < seg.segments(); ++s) {
    out[s] = StatOf(p, seg.begin_of(s), seg.ends[s]);
  }
}

namespace {

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

}  // namespace

// Scratch reused by every Insert and SplitLeaf of one build (one per
// build, so parallel shard builds share nothing).
//
// A split scores candidate child segmentations: the leaf's own
// (horizontal splits) and each segment refined into two halves (vertical
// splits). Each candidate segment is a *piece* of the leaf's
// segmentation: a whole segment or one of its halves. SplitLeaf folds
// each member once, recording its prefix sums at the boundary points
// only, and tabulates every member's stats on every piece; a candidate
// reads its segments' stats from that table. A split of the members is
// named by its piece and statistic (mean or stddev), and every candidate
// that splits on the same piece shares its median, its member sides and
// its children's per-piece envelopes.
struct DsTree::BuildScratch {
  // A piece: the boundary points it spans and its length.
  struct Piece {
    uint32_t begin = 0;  // index into `points`
    uint32_t end = 0;
    uint32_t length = 0;
  };
  // How one piece's statistic splits the members.
  struct Split {
    double value = 0.0;   // the median
    size_t n_lo = 0;      // members with stat <= value
    bool ready = false;
  };
  // Child envelopes of one piece under one split.
  struct Children {
    SegmentRange lo;
    SegmentRange hi;
    bool ready = false;
  };

  Prefix prefix;  // the series being inserted
  std::vector<uint32_t> points;  // the leaf's boundary points, ascending
  std::vector<Piece> pieces;
  // Per segment of the leaf: its whole piece and its halves (-1: none).
  std::vector<int> whole, left, right;
  std::vector<double> sum, sum_sq;   // one member's sums at `points`
  std::vector<SegmentStats> stats;   // [piece * count + member]
  std::vector<SegmentRange> parent;  // [piece]: envelope over all members
  std::vector<Split> splits;         // [piece * 2 + (stddev ? 1 : 0)]
  std::vector<uint8_t> goes_lo;      // [split * count + member]
  std::vector<Children> children;    // [split * pieces + piece]
  std::vector<double> sorted;
  std::vector<int> candidate;        // the pieces of one candidate
};

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

  BuildScratch scratch;
  for (size_t i = 0; i < data.size(); ++i) {
    scratch.prefix.Assign(data[i]);
    Insert(static_cast<core::SeriesId>(i), &scratch);
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

void DsTree::Insert(core::SeriesId id, BuildScratch* scratch) {
  const Prefix& p = scratch->prefix;
  Node* node = root_.get();
  while (true) {
    // Extend the envelope of every node on the path.
    const Segmentation& seg = node->seg;
    for (size_t s = 0; s < seg.segments(); ++s) {
      node->ranges[s].Extend(StatOf(p, seg.begin_of(s), seg.ends[s]),
                             node->count == 0);
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
  if (node->ids.size() > options_.leaf_capacity) SplitLeaf(node, scratch);
}

void DsTree::SplitLeaf(Node* leaf, BuildScratch* sc) {
  using Piece = BuildScratch::Piece;
  const size_t count = leaf->ids.size();
  const Segmentation& seg = leaf->seg;
  const size_t segs = seg.segments();
  const bool refine = segs < options_.max_segments;

  // Pieces and boundary points: each segment's begin, its midpoint when
  // it can be refined (vertical splits allowed, length >= 2), its end.
  sc->points.assign(1, 0);
  sc->pieces.clear();
  sc->whole.assign(segs, -1);
  sc->left.assign(segs, -1);
  sc->right.assign(segs, -1);
  for (size_t s = 0; s < segs; ++s) {
    const uint32_t b = seg.begin_of(s);
    const uint32_t e = seg.ends[s];
    const auto first = static_cast<uint32_t>(sc->points.size() - 1);
    if (refine && e - b >= 2) {
      const uint32_t m = (b + e) / 2;
      sc->points.push_back(m);
      sc->left[s] = static_cast<int>(sc->pieces.size());
      sc->pieces.push_back({first, first + 1, m - b});
      sc->right[s] = static_cast<int>(sc->pieces.size());
      sc->pieces.push_back({first + 1, first + 2, e - m});
    }
    sc->points.push_back(e);
    sc->whole[s] = static_cast<int>(sc->pieces.size());
    sc->pieces.push_back(
        {first, static_cast<uint32_t>(sc->points.size() - 1), e - b});
  }
  const size_t n_pieces = sc->pieces.size();
  const size_t n_points = sc->points.size();

  // One left fold per member, recording the sums at the boundary points:
  // the same fold as Prefix::Assign, so each recorded value equals that
  // prefix entry bit for bit, and each piece's stats equal StatOf's.
  sc->sum.resize(n_points);
  sc->sum_sq.resize(n_points);
  sc->stats.resize(n_pieces * count);
  sc->parent.resize(n_pieces);
  const size_t series_bytes = data_->length() * sizeof(core::Value);
  for (size_t i = 0; i < count; ++i) {
    if (i + 1 < count) {
      const auto* next =
          reinterpret_cast<const char*>((*data_)[leaf->ids[i + 1]].data());
      for (size_t off = 0; off < series_bytes; off += 64) {
        __builtin_prefetch(next + off);
      }
    }
    const core::SeriesView x = (*data_)[leaf->ids[i]];
    double a = 0.0;
    double q = 0.0;
    sc->sum[0] = sc->sum_sq[0] = 0.0;
    uint32_t j = 0;
    for (size_t k = 1; k < n_points; ++k) {
      for (; j < sc->points[k]; ++j) {
        a = a + x[j];
        q = q + static_cast<double>(x[j]) * x[j];
      }
      sc->sum[k] = a;
      sc->sum_sq[k] = q;
    }
    for (size_t p = 0; p < n_pieces; ++p) {
      const Piece& piece = sc->pieces[p];
      const SegmentStats st = SegmentStatsOf(
          sc->sum[piece.end] - sc->sum[piece.begin],
          sc->sum_sq[piece.end] - sc->sum_sq[piece.begin],
          static_cast<double>(piece.length));
      sc->stats[p * count + i] = st;
      sc->parent[p].Extend(st, i == 0);
    }
  }

  sc->splits.assign(n_pieces * 2, {});
  sc->goes_lo.resize(n_pieces * 2 * count);
  sc->children.assign(n_pieces * 2 * n_pieces, {});
  sc->sorted.resize(count);
  // The median split of piece `p` on its mean (or stddev) and each
  // member's side, taken once per piece and statistic.
  const auto split_of = [&](size_t p, bool on_mean) -> size_t {
    const size_t k = p * 2 + (on_mean ? 0 : 1);
    BuildScratch::Split& split = sc->splits[k];
    if (split.ready) return k;
    const SegmentStats* st = &sc->stats[p * count];
    for (size_t i = 0; i < count; ++i) {
      sc->sorted[i] = on_mean ? st[i].mean : st[i].stddev;
    }
    // Median split value balances the children.
    std::nth_element(sc->sorted.begin(), sc->sorted.begin() + count / 2,
                     sc->sorted.end());
    split.value = sc->sorted[count / 2];
    uint8_t* lo = &sc->goes_lo[k * count];
    for (size_t i = 0; i < count; ++i) {
      lo[i] = (on_mean ? st[i].mean : st[i].stddev) <= split.value;
      split.n_lo += lo[i];
    }
    split.ready = true;
    return k;
  };
  // The envelopes of piece `p` over the two sides of split `k`.
  const auto children_of = [&](size_t k, size_t p)
      -> const BuildScratch::Children& {
    BuildScratch::Children& c = sc->children[k * n_pieces + p];
    if (c.ready) return c;
    const SegmentStats* st = &sc->stats[p * count];
    const uint8_t* lo = &sc->goes_lo[k * count];
    size_t n_lo = 0;
    size_t n_hi = 0;
    for (size_t i = 0; i < count; ++i) {
      if (lo[i]) {
        c.lo.Extend(st[i], n_lo++ == 0);
      } else {
        c.hi.Extend(st[i], n_hi++ == 0);
      }
    }
    c.ready = true;
    return c;
  };
  // "Size" of an envelope over the candidate's pieces: how loose its
  // lower bound can be. The QoS heuristic minimizes the count-weighted
  // envelope size of the children.
  const auto box_size = [&](const auto& range_of) {
    double acc = 0.0;
    for (const int p : sc->candidate) {
      const SegmentRange& r = range_of(static_cast<size_t>(p));
      const double dm = r.max_mean - r.min_mean;
      const double ds = r.max_std - r.min_std;
      acc += static_cast<double>(sc->pieces[p].length) * (dm * dm + ds * ds);
    }
    return acc;
  };

  // Candidate child segmentations: -1 is the leaf's own (horizontal
  // splits), r >= 0 refines segment r (a vertical split). Horizontal and
  // vertical candidates are scored separately; a vertical split (which
  // refines the segmentation and deepens every future lower bound
  // computation) is only taken when it is clearly better than the best
  // horizontal one.
  struct Best {
    int refined = -1;
    int split_segment = -1;
    bool split_on_mean = true;
    size_t split = 0;
    double qos = std::numeric_limits<double>::infinity();
  };
  Best best_horizontal;
  Best best_vertical;
  const auto set_candidate = [&](int r) {
    sc->candidate.clear();
    for (size_t t = 0; t < segs; ++t) {
      if (static_cast<int>(t) == r) {
        sc->candidate.push_back(sc->left[t]);
        sc->candidate.push_back(sc->right[t]);
      } else {
        sc->candidate.push_back(sc->whole[t]);
      }
    }
  };
  for (int r = -1; r < static_cast<int>(segs); ++r) {
    if (r >= 0 && sc->left[r] < 0) continue;
    set_candidate(r);
    // Box sizes are only comparable within one segmentation; normalize by
    // the parent's box over the same candidate segmentation so vertical
    // refinements compete fairly with horizontal splits.
    const double parent_box =
        box_size([&](size_t p) -> const SegmentRange& {
          return sc->parent[p];
        });
    for (size_t s = 0; s < sc->candidate.size(); ++s) {
      for (const bool on_mean : {true, false}) {
        const size_t k =
            split_of(static_cast<size_t>(sc->candidate[s]), on_mean);
        const size_t n_lo = sc->splits[k].n_lo;
        const size_t n_hi = count - n_lo;
        if (n_lo == 0 || n_hi == 0) continue;  // degenerate
        if (parent_box <= 0.0) continue;
        // Evaluate the QoS: count-weighted envelope size of the children.
        const double qos =
            (static_cast<double>(n_lo) *
                 box_size([&](size_t p) -> const SegmentRange& {
                   return children_of(k, p).lo;
                 }) +
             static_cast<double>(n_hi) *
                 box_size([&](size_t p) -> const SegmentRange& {
                   return children_of(k, p).hi;
                 })) /
            (static_cast<double>(count) * parent_box);
        Best& best = r < 0 ? best_horizontal : best_vertical;
        if (qos < best.qos) {
          best = {r, static_cast<int>(s), on_mean, k, qos};
        }
      }
    }
  }
  constexpr double kVerticalMargin = 0.6;
  const bool take_vertical =
      best_vertical.split_segment >= 0 &&
      (best_horizontal.split_segment < 0 ||
       best_vertical.qos < kVerticalMargin * best_horizontal.qos);
  const Best& best = take_vertical ? best_vertical : best_horizontal;
  if (best.split_segment < 0) return;  // all candidates degenerate

  leaf->child_seg = seg;
  if (best.refined >= 0) {
    const auto r = static_cast<size_t>(best.refined);
    leaf->child_seg.ends.insert(leaf->child_seg.ends.begin() +
                                    static_cast<long>(r),
                                (seg.begin_of(r) + seg.ends[r]) / 2);
  }
  leaf->split_segment = best.split_segment;
  leaf->split_on_mean = best.split_on_mean;
  leaf->split_value = sc->splits[best.split].value;
  // The children's envelopes are the ones that scored the winning split.
  set_candidate(best.refined);
  const uint8_t* goes_lo = &sc->goes_lo[best.split * count];
  for (const bool lo : {true, false}) {
    auto child = std::make_unique<Node>();
    child->seg = leaf->child_seg;
    child->depth = leaf->depth + 1;
    for (const int p : sc->candidate) {
      const BuildScratch::Children& c = children_of(best.split, p);
      child->ranges.push_back(lo ? c.lo : c.hi);
    }
    for (size_t i = 0; i < count; ++i) {
      if (goes_lo[i] == lo) child->ids.push_back(leaf->ids[i]);
    }
    child->count = child->ids.size();
    (lo ? leaf->left : leaf->right) = std::move(child);
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
        raw_(tree.data_, workers) {
    HYDRA_CHECK(tree.root_ != nullptr);
    qp_.Assign(query);
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
  void Seeds(const W& w, const Push& push) {
    if constexpr (W::kRange) {
      Bound(tree_.root_.get(), w, push);
    } else {
      push({0.0, tree_.root_.get()});
    }
  }

  template <typename W>
  void Expand(const Item& item, const W& w, const Push& push) {
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
  void Bound(const Node* node, const W& w, const Push& push) {
    if (node->count == 0) return;
    node_stats_.resize(node->seg.segments());
    StatsOn(qp_, node->seg, node_stats_.data());
    const double lb =
        transform::EapcaNodeLbSq(node_stats_, node->ranges, node->seg);
    ++w.stats().lower_bound_computations;
    if (w.Admits(lb)) push({lb, node});
  }

  const DsTree& tree_;
  const core::SeriesView query_;
  const core::QueryOrder& order_;
  Prefix qp_;
  // The query's stats over the node being bounded (the calling thread
  // bounds every node: Seeds and Expand run there).
  std::vector<SegmentStats> node_stats_;
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
  Prefix qp;
  qp.Assign(query);
  std::vector<SegmentStats> stats;
  return MeanLeafTlb(query, *data_, [&](const auto& visit) {
    ForEachNode([&](const Node& n, int) {
      if (!n.is_leaf) return;
      visit(n.ids, [&] {
        stats.resize(n.seg.segments());
        StatsOn(qp, n.seg, stats.data());
        return transform::EapcaNodeLbSq(stats, n.ranges, n.seg);
      });
    });
  });
}

}  // namespace hydra::index
