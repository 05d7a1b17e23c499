// The raw layer of the out-of-core backend: a run reader over an
// io::SeriesFile. Every read is one pread(2) of consecutive series straight
// into the caller's buffer, with measured accounting — the skip-sequential
// access the paper charges a leaf or a refined candidate, made an actual
// bounded I/O path instead of a pointer dereference. The pool caches
// nothing: it holds no pages, so nothing is evicted, pinned or waited for.
//
// Invariants:
//   - A run is at most max_run_series() series (page_bytes rounded down
//     to whole series, at least one), so it is always one pread.
//   - Memory is bounded: the budget caps the run scratch the pool lends
//     to all open readers at once (BorrowRun / ReturnRun, one atomic). A
//     reader the budget cannot cover reads one series at a time from a
//     one-series scratch of its own, so no read ever waits for a loan.
//
// Counters: each run is one pool_miss, one pool_pread_call and its bytes in
// the caller's SearchStats — *measured*, disjoint from the modeled
// DiskModel counters. pool_hits and pool_evictions stay 0: there is no
// resident page to hit or evict.
#ifndef HYDRA_STORAGE_BUFFER_POOL_H_
#define HYDRA_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>

#include "core/raw_source.h"
#include "core/search_stats.h"
#include "core/types.h"
#include "io/series_file.h"

namespace hydra::storage {

struct BufferPoolOptions {
  /// Cap on the run scratch lent to all open readers at once.
  size_t budget_bytes = size_t{64} << 20;
  /// Largest run; rounded down to a whole number of series (and up to at
  /// least one series).
  size_t page_bytes = size_t{1} << 20;
};

class BufferPool : public core::RawSeriesSource {
 public:
  /// `file` must stay open for the pool's lifetime.
  BufferPool(const io::SeriesFile* file, const BufferPoolOptions& options);

  /// See core::RawSeriesSource. `first` addresses the file's series. An
  /// I/O failure (the backing file truncated or replaced mid-run)
  /// CHECK-aborts with the pread's typed message — by then the data the
  /// query was promised no longer exists, and a wrong answer would be
  /// worse than a crash. Probe the file first via SeriesFile::ReadAt to
  /// handle truncation as a recoverable error.
  void ReadRun(size_t first, size_t n, core::Value* out,
               core::SearchStats* stats) override;
  size_t BorrowRun(size_t series) override;
  void ReturnRun(size_t series) override;

  /// Geometry, fixed at construction: the largest run, and the budget,
  /// both in series.
  size_t max_run_series() const { return max_run_; }
  size_t budget_series() const { return budget_series_; }
  /// Series of the budget not lent out right now.
  size_t available_series() const {
    return available_.load(std::memory_order_relaxed);
  }

 private:
  const io::SeriesFile* file_;
  size_t max_run_;
  size_t budget_series_;
  std::atomic<size_t> available_;
};

}  // namespace hydra::storage

#endif  // HYDRA_STORAGE_BUFFER_POOL_H_
