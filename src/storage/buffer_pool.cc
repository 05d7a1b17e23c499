#include "storage/buffer_pool.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"
#include "util/status.h"

namespace hydra::storage {

BufferPool::BufferPool(const io::SeriesFile* file,
                       const BufferPoolOptions& options)
    : file_(file) {
  HYDRA_CHECK_MSG(file_ != nullptr && file_->fd() >= 0,
                  "BufferPool needs an open SeriesFile");
  const size_t series_bytes = file_->series_bytes();
  max_run_ = std::max<size_t>(1, options.page_bytes / series_bytes);
  budget_series_ = options.budget_bytes / series_bytes;
  available_.store(budget_series_, std::memory_order_relaxed);
}

void BufferPool::ReadRun(size_t first, size_t n, core::Value* out,
                         core::SearchStats* stats) {
  HYDRA_CHECK_MSG(first <= file_->count() && n <= file_->count() - first,
                  "BufferPool run beyond the series file");
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
    ++stats->pool_pread_calls;
    stats->pool_bytes_read += static_cast<int64_t>(n * file_->series_bytes());
  }
}

size_t BufferPool::BorrowRun(size_t series) {
  const size_t want = std::min(series, max_run_);
  size_t available = available_.load(std::memory_order_relaxed);
  do {
    if (available < want) return 0;
  } while (!available_.compare_exchange_weak(available, available - want,
                                             std::memory_order_relaxed));
  return want;
}

void BufferPool::ReturnRun(size_t series) {
  available_.fetch_add(series, std::memory_order_relaxed);
}

}  // namespace hydra::storage
