#include "index/mtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/distance.h"
#include "core/traversal.h"
#include "io/index_codec.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hydra::index {

struct MTree::Route {
  core::SeriesId center = 0;
  double radius = 0.0;
  double dist_to_parent = 0.0;
};

struct MTree::Node {
  core::SeriesId center = 0;
  double radius = 0.0;
  double dist_to_parent = 0.0;
  bool is_leaf = true;
  // Leaf payload: member ids with their distance to the node center.
  std::vector<std::pair<core::SeriesId, double>> entries;
  std::vector<std::unique_ptr<Node>> children;
};

MTree::MTree(MTreeOptions options) : options_(options) {}
MTree::~MTree() = default;

double MTree::Dist(core::SeriesId a, core::SeriesId b) const {
  ++build_distance_count_;
  return std::sqrt(core::SquaredEuclidean((*data_)[a], (*data_)[b]));
}

core::BuildStats MTree::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  HYDRA_CHECK(data.size() > 0);
  build_distance_count_ = 0;

  root_ = std::make_unique<Node>();
  root_->center = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const core::SeriesId id = static_cast<core::SeriesId>(i);
    const double d = Dist(id, root_->center);
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
    Route lr;
    Route rr;
    if (Insert(root_.get(), id, d, &left, &right, &lr, &rr)) {
      // Root split: promote a new root above the two halves.
      auto new_root = std::make_unique<Node>();
      new_root->is_leaf = false;
      new_root->center = lr.center;
      left->dist_to_parent = 0.0;
      right->dist_to_parent = Dist(rr.center, lr.center);
      new_root->radius = std::max(lr.radius,
                                  right->dist_to_parent + rr.radius);
      new_root->children.push_back(std::move(left));
      new_root->children.push_back(std::move(right));
      root_ = std::move(new_root);
    }
  }

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  // Memory-resident index (the paper's only scalable implementation).
  stats.bytes_written = 0;
  return stats;
}

void MTree::SaveNode(const Node& node, io::IndexWriter* w) {
  w->WriteU32(node.center);
  w->WriteDouble(node.radius);
  w->WriteDouble(node.dist_to_parent);
  w->WriteBool(node.is_leaf);
  if (node.is_leaf) {
    w->WriteU64(node.entries.size());
    for (const auto& [id, dist] : node.entries) {
      w->WriteU32(id);
      w->WriteDouble(dist);
    }
    return;
  }
  w->WriteU64(node.children.size());
  for (const auto& child : node.children) SaveNode(*child, w);
}

std::unique_ptr<MTree::Node> MTree::LoadNode(io::IndexReader* r,
                                             size_t series_count) {
  const io::IndexReader::NodeGuard guard(r);
  auto node = std::make_unique<Node>();
  node->center = r->ReadU32();
  node->radius = r->ReadDouble();
  node->dist_to_parent = r->ReadDouble();
  node->is_leaf = r->ReadBool();
  if (!r->ok()) return node;
  if (node->center >= series_count) {
    r->Fail("M-tree routing center is out of the dataset's range");
    return node;
  }
  const uint64_t count = r->ReadU64();
  if (node->is_leaf) {
    node->entries.reserve(std::min<uint64_t>(count, series_count));
    for (uint64_t i = 0; i < count && r->ok(); ++i) {
      const core::SeriesId id = r->ReadU32();
      const double dist = r->ReadDouble();
      if (id >= series_count) {
        r->Fail("M-tree leaf entry is out of the dataset's range");
        return node;
      }
      node->entries.emplace_back(id, dist);
    }
    return node;
  }
  for (uint64_t i = 0; i < count && r->ok(); ++i) {
    node->children.push_back(LoadNode(r, series_count));
  }
  return node;
}

void MTree::DoSave(io::IndexWriter* writer) const {
  writer->BeginSection("options");
  writer->WriteU64(options_.leaf_capacity);
  writer->WriteU64(options_.internal_capacity);
  writer->WriteU64(options_.split_samples);
  writer->EndSection();
  writer->BeginSection("tree");
  SaveNode(*root_, writer);
  writer->EndSection();
}

util::Status MTree::DoOpen(io::IndexReader* reader,
                           const core::Dataset& data) {
  reader->EnterSection("options");
  options_.leaf_capacity = reader->ReadU64();
  options_.internal_capacity = reader->ReadU64();
  options_.split_samples = reader->ReadU64();
  reader->EnterSection("tree");
  if (!reader->ok()) return reader->status();
  data_ = &data;
  root_ = LoadNode(reader, data.size());
  return reader->status();
}

bool MTree::Insert(Node* node, core::SeriesId id, double dist_to_node_center,
                   std::unique_ptr<Node>* out_left,
                   std::unique_ptr<Node>* out_right, Route* left_route,
                   Route* right_route) {
  node->radius = std::max(node->radius, dist_to_node_center);
  if (node->is_leaf) {
    node->entries.emplace_back(id, dist_to_node_center);
    if (node->entries.size() > options_.leaf_capacity) {
      SplitNode(node, out_left, out_right, left_route, right_route);
      return true;
    }
    return false;
  }

  // Choose the child: min distance among covering children, else minimum
  // radius enlargement.
  Node* best = nullptr;
  double best_dist = 0.0;
  double best_key = std::numeric_limits<double>::infinity();
  for (const auto& child : node->children) {
    const double d = Dist(id, child->center);
    const double key = d <= child->radius ? d - 1e9 : d - child->radius;
    if (key < best_key) {
      best_key = key;
      best = child.get();
      best_dist = d;
    }
  }
  HYDRA_CHECK(best != nullptr);
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;
  Route lr;
  Route rr;
  if (Insert(best, id, best_dist, &left, &right, &lr, &rr)) {
    // Replace the split child by the two halves.
    auto it = std::find_if(node->children.begin(), node->children.end(),
                           [&](const auto& c) { return c.get() == best; });
    HYDRA_CHECK(it != node->children.end());
    node->children.erase(it);
    left->dist_to_parent = Dist(lr.center, node->center);
    right->dist_to_parent = Dist(rr.center, node->center);
    node->radius = std::max({node->radius, left->dist_to_parent + lr.radius,
                             right->dist_to_parent + rr.radius});
    node->children.push_back(std::move(left));
    node->children.push_back(std::move(right));
    if (node->children.size() > options_.internal_capacity) {
      SplitNode(node, out_left, out_right, left_route, right_route);
      return true;
    }
  }
  return false;
}

void MTree::SplitNode(Node* node, std::unique_ptr<Node>* out_left,
                      std::unique_ptr<Node>* out_right, Route* left_route,
                      Route* right_route) {
  // Gather member centers (leaf entries or child routing centers).
  std::vector<core::SeriesId> members;
  if (node->is_leaf) {
    members.reserve(node->entries.size());
    for (const auto& [id, d] : node->entries) members.push_back(id);
  } else {
    members.reserve(node->children.size());
    for (const auto& c : node->children) members.push_back(c->center);
  }
  const size_t n = members.size();
  HYDRA_CHECK(n >= 2);

  // Sampled mM_RAD promotion: try candidate pairs, keep the pair minimizing
  // the larger covering radius.
  util::Rng rng(n * 2654435761u);
  size_t best_a = 0;
  size_t best_b = 1;
  double best_score = std::numeric_limits<double>::infinity();
  const size_t samples = std::max<size_t>(options_.split_samples, 1);
  for (size_t s = 0; s < samples; ++s) {
    const size_t a = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    size_t b = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    if (a == b) b = (b + 1) % n;
    double ra = 0.0;
    double rb = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double da = Dist(members[i], members[a]);
      const double db = Dist(members[i], members[b]);
      if (da <= db) {
        ra = std::max(ra, da);
      } else {
        rb = std::max(rb, db);
      }
    }
    const double score = std::max(ra, rb);
    if (score < best_score) {
      best_score = score;
      best_a = a;
      best_b = b;
    }
  }

  auto left = std::make_unique<Node>();
  auto right = std::make_unique<Node>();
  left->is_leaf = right->is_leaf = node->is_leaf;
  left->center = members[best_a];
  right->center = members[best_b];

  if (node->is_leaf) {
    for (const auto& [id, unused] : node->entries) {
      const double da = Dist(id, left->center);
      const double db = Dist(id, right->center);
      Node* target = da <= db ? left.get() : right.get();
      const double d = da <= db ? da : db;
      target->entries.emplace_back(id, d);
      target->radius = std::max(target->radius, d);
    }
  } else {
    for (auto& child : node->children) {
      const double da = Dist(child->center, left->center);
      const double db = Dist(child->center, right->center);
      Node* target = da <= db ? left.get() : right.get();
      const double d = da <= db ? da : db;
      child->dist_to_parent = d;
      target->radius = std::max(target->radius, d + child->radius);
      target->children.push_back(std::move(child));
    }
  }
  *left_route = {left->center, left->radius, 0.0};
  *right_route = {right->center, right->radius, 0.0};
  *out_left = std::move(left);
  *out_right = std::move(right);
}

/// The M-tree's TreeSearch policy: covering-sphere bounds on true
/// distances, with parent-distance and triangle-inequality filters that
/// skip distance computations. Each item carries d(query, node center).
/// Subtrees are pruned against bsf/(1+epsilon) — unsquared, through
/// plan.epsilon rather than the squared plan.bound_scale. The paper's
/// M-tree is memory-resident: routing centers and leaf entries alike are
/// read in place from the dataset (the mapping on the mmap backend), with
/// no modeled or measured I/O.
class MTree::Search : public core::TreePolicy<MTree::Node> {
 public:
  static constexpr bool kDistanceBounds = true;

  Search(const MTree& tree, core::SeriesView query)
      : tree_(tree), query_(query) {
    HYDRA_CHECK(tree.root_ != nullptr);
  }

  int64_t LeafCount() const { return 0; }  // no delta rule on the M-tree
  bool IsLeaf(const Node& node) const { return node.is_leaf; }
  size_t LeafSize(const Node& leaf) const { return leaf.entries.size(); }

  template <typename W>
  void Seeds(const W& w, const Push& push) const {
    const Node* root = tree_.root_.get();
    const double d = Distance((*tree_.data_)[root->center], &w.stats());
    const double dmin = std::max(0.0, d - root->radius);
    if (w.Admits(dmin)) push({dmin, root, d});
  }

  template <typename W>
  void Expand(const Item& item, const W& w, const Push& push) const {
    for (const auto& child : item.node->children) {
      // Prune with the parent distance before computing d(q, center).
      if (!w.Admits(std::fabs(item.aux - child->dist_to_parent) -
                    child->radius)) {
        continue;
      }
      const double d = Distance((*tree_.data_)[child->center], &w.stats());
      const double dmin = std::max(0.0, d - child->radius);
      if (w.Admits(dmin)) push({dmin, child.get(), d});
    }
  }

  template <typename W>
  void VerifyLeaf(const Item& leaf, const W& w) const {
    for (const auto& [id, dist_to_center] : leaf.node->entries) {
      // Triangle-inequality filter using the precomputed distance.
      if (!w.Admits(std::fabs(leaf.aux - dist_to_center))) continue;
      if (w.RawCapReached()) return;
      const double d = Distance((*tree_.data_)[id], &w.stats());
      ++w.stats().raw_series_examined;
      w.sink().Offer(id, d * d);
    }
  }

 private:
  double Distance(core::SeriesView series, core::SearchStats* stats) const {
    ++stats->distance_computations;
    return std::sqrt(core::SquaredEuclidean(query_, series));
  }

  const MTree& tree_;
  const core::SeriesView query_;
};

core::QueryResult MTree::DoSearchKnn(core::SeriesView query,
                                     const core::KnnPlan& plan) {
  return core::TreeSearch<Search>::Knn(plan, *this, query);
}

core::QueryResult MTree::DoSearchRange(core::SeriesView query,
                                       const core::RangePlan& plan) {
  return core::TreeSearch<Search>::Range(plan, *this, query);
}

core::Footprint MTree::footprint() const {
  HYDRA_CHECK(root_ != nullptr);
  core::Footprint fp;
  struct Frame {
    const Node* node;
    int depth;
  };
  std::vector<Frame> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    ++fp.total_nodes;
    fp.memory_bytes += static_cast<int64_t>(
        sizeof(Node) +
        f.node->entries.size() * sizeof(std::pair<core::SeriesId, double>));
    if (f.node->is_leaf) {
      ++fp.leaf_nodes;
      fp.leaf_fill_fractions.push_back(
          static_cast<double>(f.node->entries.size()) /
          static_cast<double>(options_.leaf_capacity));
      fp.leaf_depths.push_back(f.depth);
    } else {
      for (const auto& c : f.node->children) {
        stack.push_back({c.get(), f.depth + 1});
      }
    }
  }
  // Memory-resident: the series themselves count toward the footprint.
  fp.memory_bytes += static_cast<int64_t>(data_->bytes());
  return fp;
}

}  // namespace hydra::index
