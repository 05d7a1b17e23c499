#include "scan/stepwise.h"

#include <algorithm>
#include <cmath>

#include "core/distance.h"
#include "transform/haar.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::scan {

core::BuildStats Stepwise::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  const size_t count = data.size();

  std::vector<double> probe = transform::HaarTransform(data[0]);
  padded_ = probe.size();
  level_bounds_ = transform::HaarLevelBoundaries(padded_);
  const size_t total_levels = level_bounds_.size();
  HYDRA_CHECK(refine_levels_ >= 0 &&
              static_cast<size_t>(refine_levels_) < total_levels);
  filter_levels_ = total_levels - static_cast<size_t>(refine_levels_);

  coeffs_.assign(filter_levels_, {});
  for (size_t level = 0; level < filter_levels_; ++level) {
    const size_t begin = level == 0 ? 0 : level_bounds_[level - 1];
    const size_t width = level_bounds_[level] - begin;
    coeffs_[level].resize(count * width);
  }
  residual_.assign(filter_levels_, std::vector<double>(count, 0.0));

  for (size_t i = 0; i < count; ++i) {
    const std::vector<double> h = transform::HaarTransform(data[i]);
    for (size_t level = 0; level < filter_levels_; ++level) {
      const size_t begin = level == 0 ? 0 : level_bounds_[level - 1];
      const size_t width = level_bounds_[level] - begin;
      std::copy(h.begin() + begin, h.begin() + begin + width,
                coeffs_[level].begin() + i * width);
      double tail = 0.0;
      for (size_t j = level_bounds_[level]; j < padded_; ++j) {
        tail += h[j] * h[j];
      }
      residual_[level][i] = tail;
    }
  }

  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;
  // Level files on (simulated) disk: every coefficient written once.
  int64_t written = 0;
  for (const auto& level : coeffs_) {
    written += static_cast<int64_t>(level.size() * sizeof(core::Value));
  }
  stats.bytes_written = written;
  stats.random_writes = static_cast<int64_t>(filter_levels_);
  return stats;
}

core::QueryResult Stepwise::DoSearchKnn(core::SeriesView query,
                                        const core::KnnPlan& plan) {
  HYDRA_CHECK(data_ != nullptr);
  HYDRA_CHECK(query.size() == data_->length());
  const size_t k = plan.k;
  util::WallTimer timer;
  const size_t count = data_->size();

  const std::vector<double> q = transform::HaarTransform(query);
  std::vector<double> q_tail(filter_levels_, 0.0);
  for (size_t level = 0; level < filter_levels_; ++level) {
    double tail = 0.0;
    for (size_t j = level_bounds_[level]; j < padded_; ++j) tail += q[j] * q[j];
    q_tail[level] = tail;
  }

  core::QueryResult result;
  // Partial squared distances (lower bounds) per surviving candidate.
  std::vector<double> partial(count, 0.0);
  std::vector<core::SeriesId> survivors(count);
  for (size_t i = 0; i < count; ++i) {
    survivors[i] = static_cast<core::SeriesId>(i);
  }

  double bound = std::numeric_limits<double>::infinity();
  for (size_t level = 0; level < filter_levels_; ++level) {
    const size_t begin = level == 0 ? 0 : level_bounds_[level - 1];
    const size_t width = level_bounds_[level] - begin;
    const std::vector<double>& block = coeffs_[level];

    // Skip-sequential pass over this level's file: contiguous survivor runs
    // are sequential, gaps cost a seek.
    int64_t prev = -2;
    // Upper bounds of the k best candidates seen this level set the new
    // pruning bound (upper bounds are valid distances of real candidates).
    // The scratch heap is re-armed per level and once more for the final
    // refinement; the bound survives each phase in `bound`.
    core::KnnHeap& ub_heap = core::ScratchKnnHeap(k);
    std::vector<core::SeriesId> next;
    next.reserve(survivors.size());
    for (const core::SeriesId id : survivors) {
      if (static_cast<int64_t>(id) != prev + 1) ++result.stats.random_seeks;
      prev = id;
      ++result.stats.sequential_reads;
      result.stats.bytes_read +=
          static_cast<int64_t>(width * sizeof(core::Value));

      double pd = partial[id];
      const double* c = block.data() + static_cast<size_t>(id) * width;
      for (size_t j = 0; j < width; ++j) {
        const double d = q[begin + j] - c[j];
        pd += d * d;
      }
      partial[id] = pd;
      ++result.stats.lower_bound_computations;
      const double rq = std::sqrt(q_tail[level]);
      const double rc = std::sqrt(residual_[level][id]);
      const double ub = pd + (rq + rc) * (rq + rc);
      ub_heap.Offer(id, ub);
      if (pd <= bound) next.push_back(id);
    }
    bound = std::min(bound, ub_heap.Bound());
    // Re-filter with the tightened bound.
    next.erase(std::remove_if(next.begin(), next.end(),
                              [&](core::SeriesId id) {
                                return partial[id] > bound;
                              }),
               next.end());
    survivors = std::move(next);
    if (survivors.empty()) break;  // cannot happen: k best always survive
  }

  // Final refinement on the raw file (random access per surviving run).
  // The max_raw budget truncates this pass: coefficient-level filtering
  // reads level files, not raw series, so the budget binds only here.
  core::KnnHeap& heap = core::ScratchKnnHeap(k);
  io::CountedStorage raw(data_);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  for (const core::SeriesId id : survivors) {
    if (plan.RawCapReached(&result.stats)) break;
    const core::SeriesView c = raw.Read(id, &result.stats);
    const double d = order.Distance(c, heap.Bound());
    ++result.stats.distance_computations;
    ++result.stats.raw_series_examined;
    heap.Offer(id, d);
  }
  heap.ExtractSortedTo(&result.neighbors);
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

core::QueryResult Stepwise::DoSearchRange(core::SeriesView query,
                                          const core::RangePlan& plan) {
  const double radius = plan.radius;
  HYDRA_CHECK(data_ != nullptr);
  HYDRA_CHECK(query.size() == data_->length());
  util::WallTimer timer;
  const size_t count = data_->size();
  const double radius_sq = radius * radius;

  const std::vector<double> q = transform::HaarTransform(query);
  core::QueryResult result;
  // With a fixed bound no upper-bounding pass is needed: filter candidates
  // level by level on the partial (lower-bounding) distance alone.
  std::vector<double> partial(count, 0.0);
  std::vector<core::SeriesId> survivors(count);
  for (size_t i = 0; i < count; ++i) {
    survivors[i] = static_cast<core::SeriesId>(i);
  }
  for (size_t level = 0; level < filter_levels_ && !survivors.empty();
       ++level) {
    const size_t begin = level == 0 ? 0 : level_bounds_[level - 1];
    const size_t width = level_bounds_[level] - begin;
    const std::vector<double>& block = coeffs_[level];
    int64_t prev = -2;
    std::vector<core::SeriesId> next;
    next.reserve(survivors.size());
    for (const core::SeriesId id : survivors) {
      if (static_cast<int64_t>(id) != prev + 1) ++result.stats.random_seeks;
      prev = id;
      ++result.stats.sequential_reads;
      result.stats.bytes_read +=
          static_cast<int64_t>(width * sizeof(core::Value));
      double pd = partial[id];
      const double* c = block.data() + static_cast<size_t>(id) * width;
      for (size_t j = 0; j < width; ++j) {
        const double d = q[begin + j] - c[j];
        pd += d * d;
      }
      partial[id] = pd;
      ++result.stats.lower_bound_computations;
      if (pd <= radius_sq) next.push_back(id);
    }
    survivors = std::move(next);
  }

  core::RangeCollector collector(radius_sq);
  io::CountedStorage raw(data_);
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  for (const core::SeriesId id : survivors) {
    const core::SeriesView c = raw.Read(id, &result.stats);
    const double d = order.Distance(c, radius_sq);
    ++result.stats.distance_computations;
    ++result.stats.raw_series_examined;
    collector.Offer(id, d);
  }
  result.neighbors = collector.TakeSorted();
  result.stats.cpu_seconds = timer.Seconds();
  return result;
}

}  // namespace hydra::scan
