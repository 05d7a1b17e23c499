#include "index/isax2plus.h"

#include "core/distance.h"
#include "core/traversal.h"
#include "index/leaf_scan.h"
#include "io/index_codec.h"
#include "transform/paa.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::index {

core::BuildStats Isax2Plus::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  HYDRA_CHECK_MSG(data.length() % options_.segments == 0,
                  "iSAX2+ requires length divisible by segment count");

  // One sequential pass: PAA -> full-resolution words.
  full_words_.resize(data.size() * options_.segments);
  for (size_t i = 0; i < data.size(); ++i) {
    transform::EncodeFullWord(data[i], options_.segments,
                              full_words_.data() + i * options_.segments);
  }
  tree_ = std::make_unique<IsaxTree>(
      IsaxTreeOptions{options_.segments, options_.leaf_capacity},
      full_words_.data());
  for (size_t i = 0; i < data.size(); ++i) {
    tree_->Insert(static_cast<core::SeriesId>(i));
  }
  HYDRA_DCHECK(LeavesPartitionIds(
      data.size(), [this](const auto& visit) { tree_->ForEachNode(visit); }));
  CountLeaves();

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  // Leaf materialization: the raw collection is clustered into leaf files.
  stats.bytes_written = static_cast<int64_t>(data.bytes());
  stats.random_writes = leaf_count_;
  return stats;
}

void Isax2Plus::DoSave(io::IndexWriter* writer) const {
  writer->BeginSection("options");
  writer->WriteU64(options_.segments);
  writer->WriteU64(options_.leaf_capacity);
  writer->WriteI64(leaf_count_);
  writer->EndSection();
  writer->BeginSection("summaries");
  writer->WritePodVector(full_words_);
  writer->EndSection();
  writer->BeginSection("tree");
  tree_->SaveTo(writer);
  writer->EndSection();
}

util::Status Isax2Plus::DoOpen(io::IndexReader* reader,
                               const core::Dataset& data) {
  reader->EnterSection("options");
  options_.segments = reader->ReadU64();
  options_.leaf_capacity = reader->ReadU64();
  reader->ReadI64();  // the saved leaf count; the loaded tree's is counted
  tree_ = IsaxTree::OpenShared(
      reader, IsaxTreeOptions{options_.segments, options_.leaf_capacity},
      data, &full_words_);
  if (!reader->ok()) return reader->status();
  data_ = &data;
  CountLeaves();
  return reader->status();
}

void Isax2Plus::CountLeaves() {
  leaf_count_ = 0;
  tree_->ForEachNode(
      [this](const IsaxTree::Node& n, int) { leaf_count_ += n.is_leaf; });
}

/// iSAX2+'s TreeSearch policy: iSAX MINDIST lower bounds, seeded with the
/// first-level fan-out, the covering-word descent as home, and node words
/// and leaf members bounded from the query's iSAX table once the traversal
/// starts.
class Isax2Plus::Search : public core::TreePolicy<IsaxTree::Node> {
 public:
  Search(const Isax2Plus& index, core::SeriesView query, size_t workers)
      : index_(index),
        order_(core::ScratchQueryOrder(query)),
        paa_(transform::Paa(query, index.options_.segments)),
        pps_(query.size() / index.options_.segments),
        raw_(index.data_, workers) {
    HYDRA_CHECK(index.tree_ != nullptr);
  }

  /// Fills the calling thread's iSAX table for the query's PAA: the node
  /// bounds of Seeds/Expand and the leaf-member bounds.
  void PrepareMemberBounds() {
    transform::IsaxQueryTable& table = transform::ScratchIsaxQueryTable();
    table.Reset(paa_, pps_);
    table_ = &table;
  }

  int64_t LeafCount() const { return index_.leaf_count_; }
  bool IsLeaf(const Node& node) const { return node.is_leaf; }
  size_t LeafSize(const Node& leaf) const { return leaf.ids.size(); }

  /// The leaf covering the query's word (IsaxTree::ApproximateLeaf).
  const Node* Home() const {
    return index_.tree_->ApproximateLeaf(paa_, pps_);
  }

  template <typename W>
  void Seeds(const W& w, const Push& push) const {
    for (const auto& [key, node] : index_.tree_->first_level()) {
      Bound(node.get(), w, push);
    }
  }

  template <typename W>
  void Expand(const Item& item, const W& w, const Push& push) const {
    Bound(item.node->child0.get(), w, push);
    Bound(item.node->child1.get(), w, push);
  }

  template <typename W>
  void VerifyLeaf(const Item& leaf, const W& w) {
    io::CountedStorage& raw = raw_[w.index()];
    if (table_ == nullptr) {
      ScanLeaf(leaf.node->ids, raw, order_, w);
    } else {
      ScanLeaf(leaf.node->ids, raw, order_, w,
               IsaxMemberBound{table_, index_.full_words_.data()});
    }
  }

 private:
  template <typename W>
  void Bound(const Node* node, const W& w, const Push& push) const {
    HYDRA_DCHECK(table_ != nullptr);
    const double lb = table_->NodeBoundSq(node->word);
    ++w.stats().lower_bound_computations;
    if (w.Admits(lb)) push({lb, node});
  }

  const Isax2Plus& index_;
  const core::QueryOrder& order_;
  const std::vector<double> paa_;
  const size_t pps_;
  io::WorkerCursors raw_;
  // Set by PrepareMemberBounds (null during the home visit and the whole
  // ng path, which never fills it).
  const transform::IsaxQueryTable* table_ = nullptr;
};

core::QueryResult Isax2Plus::DoSearchKnn(core::SeriesView query,
                                         const core::KnnPlan& plan) {
  return core::TreeSearch<Search>::Knn(plan, *this, query,
                                       plan.query_threads);
}

core::QueryResult Isax2Plus::DoSearchKnnNg(core::SeriesView query,
                                           size_t k) {
  return core::TreeSearch<Search>::Ng(k, *this, query, size_t{1});
}

core::QueryResult Isax2Plus::DoSearchRange(core::SeriesView query,
                                           const core::RangePlan& plan) {
  return core::TreeSearch<Search>::Range(plan, *this, query,
                                         plan.query_threads);
}

core::Footprint Isax2Plus::footprint() const {
  HYDRA_CHECK(tree_ != nullptr);
  core::Footprint fp = tree_->StructureFootprint();
  fp.memory_bytes += static_cast<int64_t>(full_words_.size());
  fp.disk_bytes = static_cast<int64_t>(data_->bytes());  // leaf files
  return fp;
}

double Isax2Plus::MeanTlb(core::SeriesView query) const {
  HYDRA_CHECK(tree_ != nullptr);
  return tree_->MeanTlb(query, *data_);
}

}  // namespace hydra::index
