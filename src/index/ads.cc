#include "index/ads.h"

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/distance.h"
#include "core/refine.h"
#include "core/traversal.h"
#include "index/leaf_scan.h"
#include "io/counted_storage.h"
#include "io/index_codec.h"
#include "transform/paa.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::index {
namespace {

/// Phase-3 refinement of one worker: core::KnnRefine plus the delta
/// stopping rule, which stops after `cap` refined series without flagging
/// a budget (delta < 1 plans run at width 1, so one worker counts them
/// all).
struct DeltaRefine : core::KnnRefine {
  int64_t cap;
  int64_t refined = 0;

  bool Stop() { return KnnRefine::Stop() || refined >= cap; }
  void Offer(core::SeriesId id, double d) {
    ++refined;
    KnnRefine::Offer(id, d);
  }
};

}  // namespace

core::BuildStats AdsPlus::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  HYDRA_CHECK_MSG(data.length() % options_.segments == 0,
                  "ADS+ requires length divisible by segment count");

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

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  // One sequential read of the raw file; only the (small) summary file is
  // written — ADS+ never moves raw series at build time.
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  stats.bytes_written = static_cast<int64_t>(full_words_.size());
  stats.random_writes = 1;
  return stats;
}

void AdsPlus::DoSave(io::IndexWriter* writer) const {
  writer->BeginSection("options");
  writer->WriteU64(options_.segments);
  writer->WriteU64(options_.leaf_capacity);
  writer->WriteU64(options_.adaptive_leaf_capacity);
  writer->EndSection();
  writer->BeginSection("summaries");
  writer->WritePodVector(full_words_);
  writer->EndSection();
  writer->BeginSection("tree");
  tree_->SaveTo(writer);
  writer->EndSection();
}

util::Status AdsPlus::DoOpen(io::IndexReader* reader,
                             const core::Dataset& data) {
  reader->EnterSection("options");
  options_.segments = reader->ReadU64();
  options_.leaf_capacity = reader->ReadU64();
  options_.adaptive_leaf_capacity = reader->ReadU64();
  tree_ = IsaxTree::OpenShared(
      reader, IsaxTreeOptions{options_.segments, options_.leaf_capacity},
      data, &full_words_);
  if (!reader->ok()) return reader->status();
  data_ = &data;
  return reader->status();
}

std::vector<double> AdsPlus::SummaryBounds(core::SeriesView query,
                                           size_t workers) const {
  const size_t segments = options_.segments;
  const size_t count = data_->size();
  std::vector<double> lb(count);
  transform::IsaxQueryTable& table = transform::ScratchIsaxQueryTable();
  table.Reset(transform::Paa(query, segments), query.size() / segments);
  core::ParallelScan(
      workers, count, /*block=*/4096,
      [&](size_t /*w*/, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          lb[i] = table.LowerBoundSq(full_words_.data() + i * segments);
        }
      });
  return lb;
}

IsaxTree::Node* AdsPlus::AdaptiveLeaf(
    std::span<const double> paa, size_t pps,
    std::shared_lock<std::shared_mutex>& shared) {
  IsaxTree::Node* home = tree_->ApproximateLeaf(paa, pps);
  if (home == nullptr || home->size() <= options_.adaptive_leaf_capacity) {
    return home;
  }
  shared.unlock();
  {
    // Another query may have split this path since the shared descent, so
    // descend afresh. Run serially, this splits exactly the leaves a
    // single descend-and-split pass would.
    std::unique_lock<std::shared_mutex> exclusive(tree_mutex_);
    home = tree_->ApproximateLeaf(paa, pps);
    while (home != nullptr &&
           home->size() > options_.adaptive_leaf_capacity) {
      const size_t before = home->size();
      tree_->SplitLeaf(home);
      // The split leaf's subtree lists exactly the ids the leaf held, so
      // the leaves still partition the collection.
      HYDRA_DCHECK(LeavesPartitionIds(
          data_->size(),
          [&](const auto& visit) { tree_->ForEachNode(visit, home); },
          before));
      if (home->is_leaf) break;  // could not split (max resolution)
      home = tree_->ApproximateLeaf(paa, pps);
      if (home == nullptr || home->size() >= before) break;
    }
  }
  shared.lock();
  return tree_->ApproximateLeaf(paa, pps);
}

core::QueryResult AdsPlus::DoSearchKnn(core::SeriesView query,
                                       const core::KnnPlan& plan) {
  HYDRA_CHECK(tree_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::KnnHeap heap(plan.k);
  core::KnnWorkers workers(&heap, &result.stats, plan);
  io::WorkerCursors cursors(data_, workers.workers());
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  const auto paa = transform::Paa(query, options_.segments);
  const size_t pps = query.size() / options_.segments;

  // Phase 1 (ng-approximate): adaptively refine the query path down to the
  // minimal leaf size, then fetch that leaf's series from the raw file.
  // SIMS visits exactly this one leaf, so max_visited_leaves (>= 1 by
  // construction) never fires; the raw budget applies from the start.
  // The shared lock covers every use of a node, `evaluated` included.
  std::shared_lock<std::shared_mutex> shared(tree_mutex_);
  IsaxTree::Node* home = AdaptiveLeaf(paa, pps, shared);
  std::span<const core::SeriesId> evaluated;
  if (home != nullptr) {
    ++result.stats.nodes_visited;
    core::KnnRefine refine{&heap, &result.stats, &plan};
    core::RefineLoop(home->ids, {}, cursors[0], order, refine);
    evaluated = home->ids;
  }

  // A budget exhausted already in phase 1 makes the answer final: skip the
  // O(N) summary pass and the refinement scan outright — the whole point
  // of a budget is to keep truncated queries cheap. Otherwise phase 1
  // refined every series of its leaf, all of `evaluated`.
  if (result.stats.budget_exhausted) {
    workers.Finish(plan.k, &result.neighbors);
    result.stats.cpu_seconds = timer.Seconds();
    return result;
  }

  // Phase 2: lower bounds against every full-resolution summary. The
  // candidates are the series phase 3 would refine against today's bound,
  // less the home leaf (already refined, its ids ascending). Bounds only
  // tighten, so they are a superset of what it does refine, and the delta
  // stopping rule, over ADS+'s unit of random access, caps the pass at
  // ceil(delta * their number) reads.
  const std::vector<double> lb = SummaryBounds(query, workers.workers());
  result.stats.lower_bound_computations += static_cast<int64_t>(lb.size());
  core::Candidates candidates;
  size_t next_home = 0;
  for (size_t i = 0; i < lb.size(); ++i) {
    if (next_home < evaluated.size() && evaluated[next_home] == i) {
      ++next_home;
    } else if (lb[i] < heap.Bound() * plan.bound_scale) {
      candidates.Add(static_cast<core::SeriesId>(i), lb[i]);
    }
  }
  shared.unlock();
  const int64_t delta_cap =
      plan.DeltaCap(static_cast<int64_t>(candidates.ids.size()));

  // Phase 3: skip-sequential refinement of the candidates. Pruning against
  // bsf/(1+epsilon)^2 (plan.bound_scale) keeps every reported distance
  // within (1+epsilon) of the truth (exact with the default plan).
  core::RefineCandidates(candidates, workers.workers(), cursors, order,
                         [&](size_t w) {
                           return DeltaRefine{
                               {&workers.heap(w), &workers.stats(w), &plan},
                               delta_cap};
                         });

  workers.Finish(plan.k, &result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult AdsPlus::DoSearchRange(core::SeriesView query,
                                         const core::RangePlan& plan) {
  HYDRA_CHECK(tree_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  // SIMS with a fixed bound: the approximate phase is unnecessary — prune
  // every summary against r^2, then skip-sequentially refine survivors.
  const std::vector<double> lb = SummaryBounds(query, plan.query_threads);
  result.stats.lower_bound_computations += static_cast<int64_t>(lb.size());
  core::Candidates candidates;
  for (size_t i = 0; i < lb.size(); ++i) {
    if (lb[i] <= plan.radius * plan.radius) {
      candidates.ids.push_back(static_cast<core::SeriesId>(i));
    }
  }
  core::RefineRange(candidates, *data_, plan,
                    core::ScratchQueryOrder(query), &result);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult AdsPlus::DoSearchKnnNg(core::SeriesView query, size_t k) {
  HYDRA_CHECK(tree_ != nullptr);
  util::WallTimer timer;
  core::QueryResult result;
  core::KnnHeap heap(k);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  const auto paa = transform::Paa(query, options_.segments);
  const size_t pps = query.size() / options_.segments;

  std::shared_lock<std::shared_mutex> shared(tree_mutex_);
  IsaxTree::Node* home = tree_->ApproximateLeaf(paa, pps);
  if (home != nullptr) {
    ++result.stats.nodes_visited;
    const core::KnnPlan plan{.k = k};
    io::CountedStorage raw(data_);
    core::KnnRefine refine{&heap, &result.stats, &plan};
    core::RefineLoop(home->ids, {}, raw, order, refine);
  }
  result.neighbors = heap.TakeSorted();
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::Footprint AdsPlus::footprint() const {
  HYDRA_CHECK(tree_ != nullptr);
  core::Footprint fp = tree_->StructureFootprint();
  fp.memory_bytes += static_cast<int64_t>(full_words_.size());
  // ADS+ stores only the summary file; raw data stays in the original file.
  fp.disk_bytes = static_cast<int64_t>(full_words_.size());
  return fp;
}

double AdsPlus::MeanTlb(core::SeriesView query) const {
  HYDRA_CHECK(tree_ != nullptr);
  return tree_->MeanTlb(query, *data_);
}

}  // namespace hydra::index
