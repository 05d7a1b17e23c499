#include "io/counted_storage.h"

#include <algorithm>

#include "util/check.h"

namespace hydra::io {

CountedStorage::CountedStorage(const core::Dataset* data)
    : data_(data),
      source_(data != nullptr ? data->raw_source() : nullptr),
      base_(data != nullptr ? data->raw_base() : 0) {
  HYDRA_CHECK(data != nullptr);
}

core::SeriesView CountedStorage::Read(core::SeriesId i,
                                      core::SearchStats* stats) {
  HYDRA_DCHECK(i < data_->size());
  if (stats != nullptr) {
    if (static_cast<int64_t>(i) != cursor_ + 1) {
      ++stats->random_seeks;
    }
    ++stats->sequential_reads;
    stats->bytes_read += static_cast<int64_t>(series_bytes());
  }
  cursor_ = static_cast<int64_t>(i);
  return Fetch(i, stats);
}

void CountedStorage::SetPlan(std::span<const core::SeriesId> ids) {
  if (source_ == nullptr) return;
  HYDRA_DCHECK(std::is_sorted(ids.begin(), ids.end()));
  // Runs end at a planned id, so this keeps every run inside the dataset
  // (for a shard slice: inside the slice, whatever its raw_base).
  HYDRA_CHECK(ids.empty() || ids.back() < data_->size());
  pin_.Release();  // a planned cursor never holds a frame
  planned_ = true;
  plan_ = ids;
  plan_next_ = 0;
  run_count_ = 0;
}

void CountedStorage::ClearPlan() {
  pin_.Release();
  planned_ = false;
  plan_ = {};
  run_count_ = 0;
}

core::SeriesView CountedStorage::FetchPlanned(core::SeriesId i,
                                              core::SearchStats* stats) {
  const size_t length = data_->length();
  if (i < run_first_ || i - run_first_ >= run_count_) {
    if (run_ == nullptr) {
      run_capacity_ = std::min(kRunMaxSeries, source_->series_per_frame());
      run_ = std::make_unique_for_overwrite<core::Value[]>(run_capacity_ *
                                                           length);
    }
    // The run starts at i and takes in the planned candidates after it
    // while the gap to each stays small and the run fits the scratch.
    while (plan_next_ < plan_.size() && plan_[plan_next_] <= i) ++plan_next_;
    size_t end = size_t{i} + 1;
    while (plan_next_ < plan_.size()) {
      const size_t next = plan_[plan_next_];
      if (next - end > kRunGap || next - i >= run_capacity_) break;
      end = next + 1;
      ++plan_next_;
    }
    source_->ReadRun(base_ + i, end - i, run_.get(), stats);
    run_first_ = i;
    run_count_ = end - i;
  }
  if (stats != nullptr) ++stats->pool_direct_reads;
  return core::SeriesView(run_.get() + (i - run_first_) * length, length);
}

core::SeriesView CountedStorage::ReadPrecharged(core::SeriesId i,
                                                core::SearchStats* stats) {
  HYDRA_DCHECK(i < data_->size());
  return Fetch(i, stats);
}

void ChargeLeafRead(size_t series_count, size_t series_bytes,
                    core::SearchStats* stats) {
  if (stats == nullptr) return;
  ++stats->random_seeks;
  stats->sequential_reads += static_cast<int64_t>(series_count);
  stats->bytes_read += static_cast<int64_t>(series_count * series_bytes);
}

void ChargeSequentialRead(size_t series_count, size_t series_bytes,
                          core::SearchStats* stats) {
  if (stats == nullptr) return;
  stats->sequential_reads += static_cast<int64_t>(series_count);
  stats->bytes_read += static_cast<int64_t>(series_count * series_bytes);
}

void ChargeScanStart(core::SearchStats* stats) {
  if (stats == nullptr) return;
  ++stats->random_seeks;
}

}  // namespace hydra::io
