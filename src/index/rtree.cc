#include "index/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <ranges>

#include "core/distance.h"
#include "core/simd/kernels.h"
#include "core/traversal.h"
#include "index/leaf_scan.h"
#include "io/counted_storage.h"
#include "io/index_codec.h"
#include "transform/paa.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::index {
namespace {

// Axis-aligned rectangle in the scaled PAA space.
struct Rect {
  std::vector<double> lo;
  std::vector<double> hi;

  static Rect Point(std::span<const double> p) {
    return Rect{{p.begin(), p.end()}, {p.begin(), p.end()}};
  }
  void ExtendWith(const Rect& other) {
    for (size_t d = 0; d < lo.size(); ++d) {
      lo[d] = std::min(lo[d], other.lo[d]);
      hi[d] = std::max(hi[d], other.hi[d]);
    }
  }
  double Margin() const {
    double m = 0.0;
    for (size_t d = 0; d < lo.size(); ++d) m += hi[d] - lo[d];
    return m;
  }
  double Area() const {
    double a = 1.0;
    for (size_t d = 0; d < lo.size(); ++d) a *= hi[d] - lo[d];
    return a;
  }
  double OverlapWith(const Rect& other) const {
    double a = 1.0;
    for (size_t d = 0; d < lo.size(); ++d) {
      const double w =
          std::min(hi[d], other.hi[d]) - std::max(lo[d], other.lo[d]);
      if (w <= 0.0) return 0.0;
      a *= w;
    }
    return a;
  }
  double EnlargementFor(const Rect& other) const {
    double a_new = 1.0;
    for (size_t d = 0; d < lo.size(); ++d) {
      a_new *= std::max(hi[d], other.hi[d]) - std::min(lo[d], other.lo[d]);
    }
    return a_new - Area();
  }
  double MinDistSqTo(std::span<const double> p) const {
    return core::simd::ActiveKernels().box_dist_sq(p.data(), lo.data(),
                                                   hi.data(), lo.size());
  }
  double CenterDistSqTo(const Rect& other) const {
    double acc = 0.0;
    for (size_t d = 0; d < lo.size(); ++d) {
      const double c =
          (lo[d] + hi[d]) / 2.0 - (other.lo[d] + other.hi[d]) / 2.0;
      acc += c * c;
    }
    return acc;
  }
};

}  // namespace

struct RStarTree::Entry {
  Rect rect;
  std::unique_ptr<Node> child;  // internal entries
  core::SeriesId id = 0;        // leaf entries
};

struct RStarTree::Node {
  int level = 0;  // 0 = leaf
  std::vector<Entry> entries;

  bool is_leaf() const { return level == 0; }
  Rect Mbr() const {
    HYDRA_DCHECK(!entries.empty());
    Rect r = entries.front().rect;
    for (size_t i = 1; i < entries.size(); ++i) r.ExtendWith(entries[i].rect);
    return r;
  }
};

RStarTree::RStarTree(RTreeOptions options) : options_(options) {}
RStarTree::~RStarTree() = default;

template <typename Visit>
void RStarTree::ForEachNode(Visit&& visit) const {
  std::vector<std::pair<const Node*, int>> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    visit(*node, depth);
    if (node->is_leaf()) continue;
    for (const Entry& e : node->entries) {
      stack.push_back({e.child.get(), depth + 1});
    }
  }
}

core::BuildStats RStarTree::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  HYDRA_CHECK_MSG(data.length() % options_.segments == 0,
                  "R*-tree requires length divisible by segment count");
  dims_ = options_.segments;
  scale_ = std::sqrt(static_cast<double>(data.length() / options_.segments));

  points_.resize(data.size() * dims_);
  for (size_t i = 0; i < data.size(); ++i) {
    const auto paa = transform::Paa(data[i], dims_);
    for (size_t d = 0; d < dims_; ++d) points_[i * dims_ + d] = paa[d] * scale_;
  }
  root_ = std::make_unique<Node>();
  for (size_t i = 0; i < data.size(); ++i) {
    InsertPoint(static_cast<core::SeriesId>(i));
  }

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  stats.bytes_written =
      static_cast<int64_t>(points_.size() * sizeof(double));
  ForEachNode([&](const Node&, int) { ++stats.random_writes; });
  return stats;
}

void RStarTree::SaveNode(const Node& node, io::IndexWriter* w) {
  w->WriteI32(node.level);
  w->WriteU64(node.entries.size());
  for (const Entry& e : node.entries) {
    w->WritePodVector(e.rect.lo);
    w->WritePodVector(e.rect.hi);
    if (node.is_leaf()) {
      w->WriteU32(e.id);
    } else {
      SaveNode(*e.child, w);
    }
  }
}

std::unique_ptr<RStarTree::Node> RStarTree::LoadNode(
    io::IndexReader* r, size_t series_count) const {
  const io::IndexReader::NodeGuard guard(r);
  auto node = std::make_unique<Node>();
  node->level = r->ReadI32();
  const uint64_t count = r->ReadU64();
  if (!r->ok()) return node;
  if (node->level < 0) {
    r->Fail("R*-tree node has a negative level");
    return node;
  }
  node->entries.reserve(std::min<uint64_t>(count, series_count + 1));
  for (uint64_t i = 0; i < count && r->ok(); ++i) {
    Entry e;
    e.rect.lo = r->ReadPodVector<double>();
    e.rect.hi = r->ReadPodVector<double>();
    if (r->ok() && (e.rect.lo.size() != dims_ || e.rect.hi.size() != dims_)) {
      r->Fail("R*-tree rectangle does not match the PAA dimensionality");
      return node;
    }
    if (node->is_leaf()) {
      e.id = r->ReadU32();
      if (r->ok() && e.id >= series_count) {
        r->Fail("R*-tree leaf entry is out of the dataset's range");
        return node;
      }
    } else {
      e.child = LoadNode(r, series_count);
    }
    node->entries.push_back(std::move(e));
  }
  return node;
}

void RStarTree::DoSave(io::IndexWriter* writer) const {
  writer->BeginSection("options");
  writer->WriteU64(options_.segments);
  writer->WriteU64(options_.leaf_capacity);
  writer->WriteU64(options_.internal_capacity);
  writer->WriteDouble(options_.reinsert_fraction);
  writer->WriteU64(dims_);
  writer->WriteDouble(scale_);
  writer->WriteI32(root_->level);  // the height
  writer->EndSection();
  writer->BeginSection("points");
  writer->WritePodVector(points_);
  writer->EndSection();
  writer->BeginSection("tree");
  SaveNode(*root_, writer);
  writer->EndSection();
}

util::Status RStarTree::DoOpen(io::IndexReader* reader,
                               const core::Dataset& data) {
  reader->EnterSection("options");
  options_.segments = reader->ReadU64();
  options_.leaf_capacity = reader->ReadU64();
  options_.internal_capacity = reader->ReadU64();
  options_.reinsert_fraction = reader->ReadDouble();
  dims_ = reader->ReadU64();
  scale_ = reader->ReadDouble();
  reader->ReadI32();  // the height, the loaded root's level
  if (reader->ok() && (dims_ == 0 || data.length() % dims_ != 0)) {
    reader->Fail("R*-tree options are inconsistent with the dataset");
  }
  reader->EnterSection("points");
  points_ = reader->ReadPodVector<double>();
  if (reader->ok() && points_.size() != data.size() * dims_) {
    reader->Fail("R*-tree point file does not cover the dataset");
  }
  reader->EnterSection("tree");
  if (!reader->ok()) return reader->status();
  data_ = &data;
  root_ = LoadNode(reader, data.size());
  return reader->status();
}

void RStarTree::InsertPoint(core::SeriesId id) {
  Entry e;
  e.rect = Rect::Point(
      {points_.data() + static_cast<size_t>(id) * dims_, dims_});
  e.id = id;
  InsertEntry(std::move(e), /*target_level=*/0, /*allow_reinsert=*/true);
}

RStarTree::Node* RStarTree::ChooseSubtree(const Entry& entry,
                                          int target_level,
                                          std::vector<Node*>* path) {
  Node* node = root_.get();
  path->push_back(node);
  while (node->level != target_level) {
    Entry* best = nullptr;
    if (node->level == 1) {
      // Children are leaves: minimize overlap enlargement.
      double best_overlap = std::numeric_limits<double>::infinity();
      double best_enl = std::numeric_limits<double>::infinity();
      for (Entry& cand : node->entries) {
        Rect extended = cand.rect;
        extended.ExtendWith(entry.rect);
        double overlap_delta = 0.0;
        for (const Entry& other : node->entries) {
          if (&other == &cand) continue;
          overlap_delta += extended.OverlapWith(other.rect) -
                           cand.rect.OverlapWith(other.rect);
        }
        const double enl = cand.rect.EnlargementFor(entry.rect);
        if (overlap_delta < best_overlap ||
            (overlap_delta == best_overlap && enl < best_enl)) {
          best_overlap = overlap_delta;
          best_enl = enl;
          best = &cand;
        }
      }
    } else {
      // Minimize area enlargement.
      double best_enl = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (Entry& cand : node->entries) {
        const double enl = cand.rect.EnlargementFor(entry.rect);
        const double area = cand.rect.Area();
        if (enl < best_enl || (enl == best_enl && area < best_area)) {
          best_enl = enl;
          best_area = area;
          best = &cand;
        }
      }
    }
    HYDRA_CHECK(best != nullptr);
    best->rect.ExtendWith(entry.rect);
    node = best->child.get();
    path->push_back(node);
  }
  return node;
}

void RStarTree::InsertEntry(Entry entry, int target_level,
                            bool allow_reinsert) {
  std::vector<Node*> path;
  Node* node = ChooseSubtree(entry, target_level, &path);
  node->entries.push_back(std::move(entry));
  const size_t capacity =
      node->is_leaf() ? options_.leaf_capacity : options_.internal_capacity;
  if (node->entries.size() > capacity) {
    HandleOverflow(node, path, allow_reinsert);
  }
}

void RStarTree::HandleOverflow(Node* node, std::vector<Node*>& path,
                               bool allow_reinsert) {
  if (allow_reinsert && node != root_.get()) {
    // Forced reinsertion: remove the entries farthest from the node center
    // and insert them again from the top.
    const Rect mbr = node->Mbr();
    std::vector<size_t> idx(node->entries.size());
    std::iota(idx.begin(), idx.end(), 0u);
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return mbr.CenterDistSqTo(node->entries[a].rect) >
             mbr.CenterDistSqTo(node->entries[b].rect);
    });
    const size_t p = std::max<size_t>(
        1, static_cast<size_t>(options_.reinsert_fraction *
                               static_cast<double>(node->entries.size())));
    std::vector<Entry> removed;
    removed.reserve(p);
    std::vector<bool> take(node->entries.size(), false);
    for (size_t i = 0; i < p; ++i) take[idx[i]] = true;
    std::vector<Entry> kept;
    kept.reserve(node->entries.size() - p);
    for (size_t i = 0; i < node->entries.size(); ++i) {
      auto& slot = take[i] ? removed : kept;
      slot.push_back(std::move(node->entries[i]));
    }
    node->entries = std::move(kept);
    const int level = node->level;
    for (Entry& e : removed) {
      InsertEntry(std::move(e), level, /*allow_reinsert=*/false);
    }
    return;
  }
  SplitNode(node, path);
}

void RStarTree::SplitNode(Node* node, std::vector<Node*>& path) {
  const size_t total = node->entries.size();
  const size_t m = std::max<size_t>(1, total * 2 / 5);  // R* minimum: 40%

  // Choose the split axis: minimize the margin sum over all distributions.
  size_t best_axis = 0;
  double best_margin = std::numeric_limits<double>::infinity();
  for (size_t axis = 0; axis < dims_; ++axis) {
    std::vector<size_t> idx(total);
    std::iota(idx.begin(), idx.end(), 0u);
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return node->entries[a].rect.lo[axis] < node->entries[b].rect.lo[axis];
    });
    double margin_sum = 0.0;
    for (size_t split = m; split <= total - m; ++split) {
      Rect left = node->entries[idx[0]].rect;
      for (size_t i = 1; i < split; ++i) {
        left.ExtendWith(node->entries[idx[i]].rect);
      }
      Rect right = node->entries[idx[split]].rect;
      for (size_t i = split + 1; i < total; ++i) {
        right.ExtendWith(node->entries[idx[i]].rect);
      }
      margin_sum += left.Margin() + right.Margin();
    }
    if (margin_sum < best_margin) {
      best_margin = margin_sum;
      best_axis = axis;
    }
  }

  // Choose the distribution along the axis: minimize overlap, then area.
  std::vector<size_t> idx(total);
  std::iota(idx.begin(), idx.end(), 0u);
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return node->entries[a].rect.lo[best_axis] <
           node->entries[b].rect.lo[best_axis];
  });
  size_t best_split = m;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t split = m; split <= total - m; ++split) {
    Rect left = node->entries[idx[0]].rect;
    for (size_t i = 1; i < split; ++i) {
      left.ExtendWith(node->entries[idx[i]].rect);
    }
    Rect right = node->entries[idx[split]].rect;
    for (size_t i = split + 1; i < total; ++i) {
      right.ExtendWith(node->entries[idx[i]].rect);
    }
    const double overlap = left.OverlapWith(right);
    const double area = left.Area() + right.Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_split = split;
    }
  }

  auto sibling = std::make_unique<Node>();
  sibling->level = node->level;
  std::vector<Entry> left_entries;
  for (size_t i = 0; i < total; ++i) {
    auto& slot = i < best_split ? left_entries : sibling->entries;
    slot.push_back(std::move(node->entries[idx[i]]));
  }
  node->entries = std::move(left_entries);

  if (node == root_.get()) {
    auto new_root = std::make_unique<Node>();
    new_root->level = node->level + 1;
    Entry left_e;
    left_e.rect = node->Mbr();
    left_e.child = std::move(root_);
    Entry right_e;
    right_e.rect = sibling->Mbr();
    right_e.child = std::move(sibling);
    new_root->entries.push_back(std::move(left_e));
    new_root->entries.push_back(std::move(right_e));
    root_ = std::move(new_root);
    return;
  }

  // Fix the parent: refresh the split node's rectangle, add the sibling.
  HYDRA_CHECK(path.size() >= 2);
  Node* parent = path[path.size() - 2];
  for (Entry& e : parent->entries) {
    if (e.child.get() == node) {
      e.rect = node->Mbr();
      break;
    }
  }
  Entry sib_e;
  sib_e.rect = sibling->Mbr();
  sib_e.child = std::move(sibling);
  parent->entries.push_back(std::move(sib_e));
  if (parent->entries.size() > options_.internal_capacity) {
    path.pop_back();
    SplitNode(parent, path);
  }
}

/// The R*-tree's TreeSearch policy: rectangle MINDIST in the scaled PAA
/// space, for child entries and — as a per-entry filter before any raw
/// read — for leaf entries. Raw reads go through one cursor per worker
/// for the whole query, so the skip-sequential charge spans leaves; over
/// a pool each is a run read of one series.
class RStarTree::Search : public core::TreePolicy<RStarTree::Node> {
 public:
  Search(const RStarTree& tree, core::SeriesView query, size_t workers)
      : tree_(tree),
        order_(core::ScratchQueryOrder(query)),
        q_(transform::Paa(query, tree.dims_)),
        raw_(tree.data_, workers) {
    HYDRA_CHECK(tree.root_ != nullptr);
    for (double& v : q_) v *= tree.scale_;
  }

  int64_t LeafCount() const { return 0; }  // no delta rule on the R*-tree
  bool IsLeaf(const Node& node) const { return node.is_leaf(); }
  size_t LeafSize(const Node& leaf) const { return leaf.entries.size(); }

  template <typename W>
  void Seeds(const W& /*w*/, const Push& push) const {
    push({0.0, tree_.root_.get()});
  }

  template <typename W>
  void Expand(const Item& item, const W& w, const Push& push) const {
    for (const Entry& e : item.node->entries) {
      const double lb = e.rect.MinDistSqTo(q_);
      ++w.stats().lower_bound_computations;
      if (w.Admits(lb)) push({lb, e.child.get()});
    }
  }

  template <typename W>
  void VerifyLeaf(const Item& leaf, const W& w) {
    core::SearchStats& stats = w.stats();
    io::CountedStorage& raw = raw_[w.index()];
    // One random access per leaf; surviving pointers fetch raw series.
    ++stats.random_seeks;
    for (const Entry& e : leaf.node->entries) {
      const double lb = e.rect.MinDistSqTo(q_);
      ++stats.lower_bound_computations;
      if (!w.Admits(lb)) continue;
      if (w.RawCapReached()) break;
      const double d = order_.Distance(raw.Read(e.id, &stats),
                                       w.sink().Bound());
      ++stats.distance_computations;
      ++stats.raw_series_examined;
      w.sink().Offer(e.id, d);
    }
  }

 private:
  const RStarTree& tree_;
  const core::QueryOrder& order_;
  std::vector<double> q_;  // scaled PAA of the query
  io::WorkerCursors raw_;
};

core::QueryResult RStarTree::DoSearchKnn(core::SeriesView query,
                                         const core::KnnPlan& plan) {
  return core::TreeSearch<Search>::Knn(plan, *this, query,
                                       plan.query_threads);
}

core::QueryResult RStarTree::DoSearchRange(core::SeriesView query,
                                           const core::RangePlan& plan) {
  return core::TreeSearch<Search>::Range(plan, *this, query,
                                         plan.query_threads);
}

core::Footprint RStarTree::footprint() const {
  HYDRA_CHECK(root_ != nullptr);
  FootprintSum sum(options_.leaf_capacity);
  ForEachNode([&](const Node& n, int depth) {
    sum.Add(sizeof(Node) + n.entries.size() *
                               (sizeof(Entry) + 2 * dims_ * sizeof(double)),
            n.is_leaf(), n.entries.size(), depth);
  });
  core::Footprint fp = sum.Take();
  fp.disk_bytes = static_cast<int64_t>(points_.size() * sizeof(double)) +
                  static_cast<int64_t>(data_->bytes());
  return fp;
}

double RStarTree::MeanTlb(core::SeriesView query) const {
  HYDRA_CHECK(root_ != nullptr);
  const auto paa = transform::Paa(query, dims_);
  std::vector<double> q(dims_);
  for (size_t d = 0; d < dims_; ++d) q[d] = paa[d] * scale_;
  return MeanLeafTlb(query, *data_, [&](const auto& visit) {
    ForEachNode([&](const Node& n, int) {
      if (!n.is_leaf()) return;
      visit(std::views::transform(n.entries, &Entry::id),
            [&] { return n.Mbr().MinDistSqTo(q); });
    });
  });
}

}  // namespace hydra::index
