// A fixed-budget buffer pool over an io::SeriesFile: the raw layer of the
// out-of-core backend. Pages hold whole series (a series never spans two
// pages), frames are recycled LRU among unpinned pages, and every fetch is
// a real pread(2) with measured accounting — this is the disk-access
// pattern the paper's fig04/fig06/fig07 measure, made an actual bounded
// I/O path instead of a pointer dereference.
//
// Invariants:
//   - Memory is bounded: frame_count() frames of page_bytes (rounded down
//     to whole series) each, fixed at construction. No fetch ever
//     allocates.
//   - Pinned-page discipline: a frame with pins > 0 is never evicted or
//     reloaded; readers hold at most one pin (core::RawSeriesSource::Pin)
//     and release it before their next fetch, so pool capacity 1 is
//     deadlock-free — a reader needing a frame while every frame is
//     pinned blocks until a pin drops, and some reader's next read (or
//     query end) always drops one.
//   - Single-flight loads: concurrent misses of one page wait for the
//     first fetcher instead of issuing duplicate preads.
//   - Run reads (ReadRun) bypass the frames: resident pages are copied
//     out under a transient pin, absent ones are pread into the caller's
//     buffer. They install, evict and reorder nothing, and never wait.
//
// Counters: per-read deltas go to the caller's SearchStats (pool_hits /
// pool_misses / pool_evictions / pool_pread_calls / pool_bytes_read —
// *measured*, disjoint from the modeled DiskModel counters); process-wide
// totals accumulate in counters() for end-of-run summaries.
#ifndef HYDRA_STORAGE_BUFFER_POOL_H_
#define HYDRA_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/raw_source.h"
#include "core/search_stats.h"
#include "core/types.h"
#include "io/series_file.h"

namespace hydra::storage {

struct BufferPoolOptions {
  /// Total frame-memory budget; the frame count is budget / page size,
  /// floored, with a minimum of one frame.
  size_t budget_bytes = size_t{64} << 20;
  /// Requested page size; rounded down to a whole number of series (and
  /// up to at least one series).
  size_t page_bytes = size_t{1} << 20;
};

/// Snapshot of the process-wide measured totals.
struct PoolCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t pread_calls = 0;
  int64_t bytes_read = 0;
};

class BufferPool : public core::RawSeriesSource {
 public:
  /// `file` must stay open for the pool's lifetime.
  BufferPool(const io::SeriesFile* file, const BufferPoolOptions& options);

  /// See core::RawSeriesSource. `index` addresses the file's series;
  /// `stats` (nullable) receives the measured deltas. An I/O failure on
  /// the fetch path (the backing file truncated or replaced mid-run)
  /// CHECK-aborts with the pread's typed message — by then the data the
  /// query was promised no longer exists, and a wrong answer would be
  /// worse than a crash. Probe the file first via SeriesFile::ReadAt to
  /// handle truncation as a recoverable error.
  core::SeriesView ReadPinned(size_t index, Pin* pin,
                              core::SearchStats* stats) override;

  /// See core::RawSeriesSource. Each maximal stretch of absent pages is
  /// one pread (one miss, one pread call, its bytes); each series copied
  /// from a resident frame is one hit. The frames' residency and LRU
  /// order are left as they were. I/O failures CHECK-abort as in
  /// ReadPinned.
  void ReadRun(size_t first, size_t n, core::Value* out,
               core::SearchStats* stats) override;
  size_t series_per_frame() const override { return per_page_; }

  /// Geometry, fixed at construction.
  size_t series_per_page() const { return per_page_; }
  size_t page_count() const { return page_count_; }
  size_t frame_count() const { return frames_.size(); }
  size_t frame_bytes() const {
    return per_page_ * file_->series_bytes();
  }

  PoolCounters counters() const;

 protected:
  void Unpin(uint64_t token) override;

 private:
  /// Preads series [first, first + n) into `out`, counting one miss.
  void PreadRun(size_t first, size_t n, core::Value* out,
                core::SearchStats* stats);
  /// Records one pread of `n` series: a miss, a pread call, its bytes.
  void CountPread(size_t n, core::SearchStats* stats);

  struct Frame {
    std::vector<core::Value> values;
    /// Resident page, or -1 for a free frame.
    int64_t page = -1;
    int pins = 0;
    /// True while the pread of this frame's page is in flight (off-lock);
    /// readers of the same page wait on cv_ instead of double-fetching.
    bool loading = false;
    uint64_t last_use = 0;
  };

  const io::SeriesFile* file_;
  size_t per_page_;
  size_t page_count_;
  std::vector<Frame> frames_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<int64_t, size_t> resident_;  // page -> frame
  uint64_t tick_ = 0;

  std::atomic<int64_t> total_hits_{0};
  std::atomic<int64_t> total_misses_{0};
  std::atomic<int64_t> total_evictions_{0};
  std::atomic<int64_t> total_preads_{0};
  std::atomic<int64_t> total_bytes_{0};
};

}  // namespace hydra::storage

#endif  // HYDRA_STORAGE_BUFFER_POOL_H_
