#include "storage/buffer_pool.h"

#include <algorithm>
#include <limits>

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
  per_page_ = options.page_bytes / series_bytes;
  if (per_page_ == 0) per_page_ = 1;  // one series per page at minimum
  page_count_ = (file_->count() + per_page_ - 1) / per_page_;
  const size_t frame_value_count = per_page_ * file_->length();
  size_t frames = options.budget_bytes / (per_page_ * series_bytes);
  if (frames == 0) frames = 1;  // the pool always holds at least one page
  // More frames than pages would never be filled; cap to the file.
  if (page_count_ != 0 && frames > page_count_) frames = page_count_;
  frames_.resize(frames);
  for (Frame& frame : frames_) {
    frame.values.resize(frame_value_count);
  }
  resident_.reserve(frames);
}

core::SeriesView BufferPool::ReadPinned(size_t index, Pin* pin,
                                        core::SearchStats* stats) {
  HYDRA_CHECK_MSG(index < file_->count(),
                  "BufferPool read beyond the series file");
  HYDRA_CHECK_MSG(pin != nullptr, "BufferPool reads require a pin");
  const int64_t page = static_cast<int64_t>(index / per_page_);
  const size_t offset = (index % per_page_) * file_->length();
  // Fast path: the caller's pin already holds the wanted page. The pin
  // guarantees the frame can be neither evicted nor reloaded, so reading
  // frame.page without the lock is race-free.
  if (PinSource(*pin) == this) {
    const Frame& held = frames_[PinToken(*pin)];
    if (held.page == page) {
      if (stats != nullptr) ++stats->pool_hits;
      total_hits_.fetch_add(1, std::memory_order_relaxed);
      return core::SeriesView(held.values.data() + offset, file_->length());
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  // Pinned-page rule: drop the old hold before acquiring the new one, so a
  // reader never pins two frames at once. Unpin() takes mutex_ itself, so
  // a hold on this pool is dropped inline here, under the lock already
  // held; a hold on another source is released through that source.
  if (PinSource(*pin) == this) {
    Frame& held = frames_[PinToken(*pin)];
    HYDRA_CHECK_MSG(held.pins > 0, "BufferPool pin underflow");
    --held.pins;
    BindPin(pin, nullptr, 0);
    cv_.notify_all();
  } else {
    // A pin on a *different* source must be released through that source.
    pin->Release();
  }
  for (;;) {
    const auto it = resident_.find(page);
    if (it != resident_.end()) {
      Frame& frame = frames_[it->second];
      if (frame.loading) {
        // Another reader's pread is in flight for this page; wait for it
        // rather than fetching twice.
        HYDRA_OBS_SPAN_ARG("pool_wait", "page", page);
        cv_.wait(lock);
        continue;
      }
      ++frame.pins;
      frame.last_use = ++tick_;
      BindPin(pin, this, it->second);
      if (stats != nullptr) ++stats->pool_hits;
      total_hits_.fetch_add(1, std::memory_order_relaxed);
      return core::SeriesView(frame.values.data() + offset, file_->length());
    }
    // Miss: claim the least-recently-used unpinned, non-loading frame.
    size_t victim = frames_.size();
    uint64_t oldest = std::numeric_limits<uint64_t>::max();
    for (size_t f = 0; f < frames_.size(); ++f) {
      const Frame& frame = frames_[f];
      if (frame.pins != 0 || frame.loading) continue;
      if (frame.page < 0) {  // a free frame beats any eviction
        victim = f;
        break;
      }
      if (frame.last_use < oldest) {
        oldest = frame.last_use;
        victim = f;
      }
    }
    if (victim == frames_.size()) {
      // Every frame is pinned or loading. The pinned-page rule guarantees
      // progress: each reader holds at most one pin and drops it on its
      // next read, so a frame frees up without us holding anything.
      cv_.wait(lock);
      continue;
    }
    Frame& frame = frames_[victim];
    const bool evicting = frame.page >= 0;
    if (evicting) {
      resident_.erase(frame.page);
      if (stats != nullptr) ++stats->pool_evictions;
      total_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    frame.page = page;
    frame.loading = true;
    ++frame.pins;  // pinned through the load so no one can steal the frame
    resident_.emplace(page, victim);
    lock.unlock();
    const size_t first = static_cast<size_t>(page) * per_page_;
    const size_t n = std::min(per_page_, file_->count() - first);
    util::Status read;
    {
      HYDRA_OBS_SPAN_ARG("pool_miss_pread", "page", page);
      read = file_->ReadSeries(first, n, frame.values.data());
    }
    lock.lock();
    frame.loading = false;
    if (!read.ok()) {
      // The validated file vanished or shrank mid-run; the answer this
      // read was verifying can no longer be computed correctly.
      --frame.pins;
      frame.page = -1;
      resident_.erase(page);
      cv_.notify_all();
      HYDRA_CHECK_MSG(false, read.message().c_str());
    }
    frame.last_use = ++tick_;
    BindPin(pin, this, victim);
    CountPread(n, stats);
    cv_.notify_all();  // waiters for this page can now pin it
    return core::SeriesView(frame.values.data() + offset, file_->length());
  }
}

void BufferPool::ReadRun(size_t first, size_t n, core::Value* out,
                         core::SearchStats* stats) {
  HYDRA_CHECK_MSG(first <= file_->count() && n <= file_->count() - first,
                  "BufferPool run beyond the series file");
  const size_t length = file_->length();
  const size_t end = first + n;
  // [absent, i) is the stretch of absent pages not yet read: it is read
  // with one pread when a resident page (or the run's end) closes it.
  size_t absent = first;
  for (size_t i = first; i < end;) {
    const size_t page = i / per_page_;
    const size_t page_end = std::min(end, (page + 1) * per_page_);
    size_t resident = frames_.size();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = resident_.find(static_cast<int64_t>(page));
      // A page still loading is treated as absent: reading the file
      // directly is always correct, and a run read never waits.
      if (it != resident_.end() && !frames_[it->second].loading) {
        resident = it->second;
        ++frames_[resident].pins;  // held only for the copy below
      }
    }
    if (resident != frames_.size()) {
      if (absent < i) {
        PreadRun(absent, i - absent, out + (absent - first) * length, stats);
      }
      const size_t offset = (i - page * per_page_) * length;
      std::copy_n(frames_[resident].values.data() + offset,
                  (page_end - i) * length, out + (i - first) * length);
      Unpin(resident);
      const auto hits = static_cast<int64_t>(page_end - i);
      if (stats != nullptr) stats->pool_hits += hits;
      total_hits_.fetch_add(hits, std::memory_order_relaxed);
      absent = page_end;
    }
    i = page_end;
  }
  if (absent < end) {
    PreadRun(absent, end - absent, out + (absent - first) * length, stats);
  }
}

void BufferPool::PreadRun(size_t first, size_t n, core::Value* out,
                          core::SearchStats* stats) {
  util::Status read;
  {
    HYDRA_OBS_SPAN_ARG("pool_miss_pread", "series", n);
    read = file_->ReadSeries(first, n, out);
  }
  // As in ReadPinned: the validated file vanished or shrank mid-run.
  HYDRA_CHECK_MSG(read.ok(), read.message().c_str());
  CountPread(n, stats);
}

void BufferPool::CountPread(size_t n, core::SearchStats* stats) {
  const auto bytes = static_cast<int64_t>(n * file_->series_bytes());
  if (stats != nullptr) {
    ++stats->pool_misses;
    ++stats->pool_pread_calls;
    stats->pool_bytes_read += bytes;
  }
  total_misses_.fetch_add(1, std::memory_order_relaxed);
  total_preads_.fetch_add(1, std::memory_order_relaxed);
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void BufferPool::Unpin(uint64_t token) {
  std::lock_guard<std::mutex> lock(mutex_);
  Frame& frame = frames_[token];
  HYDRA_CHECK_MSG(frame.pins > 0, "BufferPool pin underflow");
  --frame.pins;
  cv_.notify_all();
}

PoolCounters BufferPool::counters() const {
  PoolCounters totals;
  totals.hits = total_hits_.load(std::memory_order_relaxed);
  totals.misses = total_misses_.load(std::memory_order_relaxed);
  totals.evictions = total_evictions_.load(std::memory_order_relaxed);
  totals.pread_calls = total_preads_.load(std::memory_order_relaxed);
  totals.bytes_read = total_bytes_.load(std::memory_order_relaxed);
  return totals;
}

}  // namespace hydra::storage
