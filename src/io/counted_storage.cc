#include "io/counted_storage.h"

#include <algorithm>

#include "io/series_file.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/status.h"

namespace hydra::io {

CountedStorage::CountedStorage(const core::Dataset* data)
    : data_(data),
      source_(data != nullptr ? data->raw_source() : nullptr),
      base_(data != nullptr ? data->raw_base() : 0) {
  HYDRA_CHECK(data != nullptr);
}

CountedStorage::~CountedStorage() {
  if (lent_ != 0) source_->ReturnRun(lent_);
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
  plan_ = ids;
  plan_next_ = 0;
  run_count_ = 0;
}

core::SeriesView CountedStorage::FetchRun(core::SeriesId i,
                                          core::SearchStats* stats) {
  const size_t length = data_->length();
  if (i < run_first_ || i - run_first_ >= run_count_) {
    if (run_ == nullptr) {
      lent_ = source_->BorrowRun(source_->run_cap());
      run_capacity_ = std::max<size_t>(1, lent_);
      run_ = util::MakeLineAlignedArray<core::Value>(run_capacity_ * length);
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

RunReader::RunReader(const SeriesFile* file, const RunReaderOptions& options)
    : file_(file), budget_bytes_(options.budget_bytes) {
  HYDRA_CHECK_MSG(file_ != nullptr && file_->fd() >= 0,
                  "RunReader needs an open SeriesFile");
  max_run_ = std::max<size_t>(1, options.page_bytes / file_->series_bytes());
  available_.store(budget_series(), std::memory_order_relaxed);
}

void RunReader::ReadRun(size_t first, size_t n, core::Value* out,
                        core::SearchStats* stats) {
  HYDRA_CHECK_MSG(first <= file_->count() && n <= file_->count() - first,
                  "RunReader run beyond the series file");
  HYDRA_DCHECK(n <= max_run_);
  util::Status read;
  {
    HYDRA_OBS_SPAN_ARG("pool_miss_pread", "series", n);
    read = file_->ReadSeries(first, n, out);
  }
  // The validated file vanished or shrank mid-run; the answer this read
  // was verifying can no longer be computed correctly.
  HYDRA_CHECK_MSG(read.ok(), read.message().c_str());
  if (stats != nullptr) {
    ++stats->pool_misses;
    stats->pool_bytes_read += static_cast<int64_t>(n * file_->series_bytes());
  }
}

size_t RunReader::BorrowRun(size_t series) {
  const size_t want = std::min(series, max_run_);
  size_t available = available_.load(std::memory_order_relaxed);
  do {
    if (available < want) return 0;
  } while (!available_.compare_exchange_weak(available, available - want,
                                             std::memory_order_relaxed));
  return want;
}

void RunReader::ReturnRun(size_t series) {
  available_.fetch_add(series, std::memory_order_relaxed);
}

size_t RunReader::run_cap() const {
  const size_t run = std::min(CountedStorage::kRunMaxSeries, max_run_);
  return budget_series() >= run ? run : 1;
}

size_t RunReader::budget_series() const {
  return budget_bytes_ / file_->series_bytes();
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
