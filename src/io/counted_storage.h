// Instrumented access to the raw data file. Two ledgers meet here:
//   - *modeled* counters (sequential_reads / random_seeks / bytes_read),
//     charged with the paper's sequential/random semantics and converted
//     to seconds by io::DiskModel — these exist for every backend;
//   - *measured* counters (pool_hits / pool_misses / ...), recorded only
//     when the dataset is file-backed (Dataset::raw_source() non-null):
//     the read is then served by the storage layer's buffer pool as a
//     real pread instead of a pointer dereference.
// The two never mix: routing a read through the pool does not change what
// is charged to the model, and the pool's counters are never fed to the
// DiskModel. Answers are bit-identical either way — the backend changes
// where the bytes live, never which bytes are compared.
#ifndef HYDRA_IO_COUNTED_STORAGE_H_
#define HYDRA_IO_COUNTED_STORAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>

#include "core/dataset.h"
#include "core/raw_source.h"
#include "core/search_stats.h"
#include "core/types.h"

namespace hydra::io {

/// Cursor-tracking reader over the raw data file (the Dataset).
///
/// A read of series i is sequential when it directly follows a read of
/// series i-1; otherwise it costs one random seek plus the read itself.
/// This reproduces the paper's skip-sequential accounting for ADS+ and
/// VA+file: every skip is one random access.
///
/// The returned view stays valid until this reader's next Read /
/// ReadPrecharged (on a pooled dataset the view points into a buffer-pool
/// frame that the reader keeps pinned only until its next fetch); callers
/// consume the series — compute its distance — before reading the next.
/// One CountedStorage serves one thread; concurrent readers each get
/// their own (they share the pool underneath).
///
/// Planned reads (SetPlan): a filter-and-refine caller that reads its
/// survivors in ascending file order hands the cursor its candidate ids
/// up front. On a pooled dataset a Read outside the current run then
/// preads one run, from the read series over the following planned
/// candidates while each gap stays within kRunGap series and the run fits
/// the cursor's scratch (at most one frame, so no more memory than the one
/// pin a cursor may hold). Reads inside the run are served from that
/// scratch and count as pool_direct_reads. Only the bytes' path changes:
/// the modeled charging is the same with or without a plan.
class CountedStorage {
 public:
  /// Largest gap, in series, a run reads through to reach the next planned
  /// candidate; a wider gap ends the run. Wider gaps mean fewer preads but
  /// more bytes read and not verified.
  static constexpr size_t kRunGap = 6;
  /// Largest run, in series (further capped to the pool's frame): how far
  /// a run reads ahead over candidates the running bound may yet prune.
  static constexpr size_t kRunMaxSeries = 128;

  explicit CountedStorage(const core::Dataset* data);

  /// Reads series `i`, charging the access to `stats` with the
  /// skip-sequential model (and recording measured pool counters when the
  /// dataset is file-backed).
  core::SeriesView Read(core::SeriesId i, core::SearchStats* stats);

  /// Reads series `i` *without* touching the modeled ledger or the
  /// cursor: for tree-method leaf loops whose modeled cost was already
  /// charged in bulk by ChargeLeafRead. Measured pool counters are still
  /// recorded — they track what the storage layer actually did.
  core::SeriesView ReadPrecharged(core::SeriesId i, core::SearchStats* stats);

  /// Asks the CPU to bring series `i` into cache ahead of its read: every
  /// cache line of it on an in-RAM dataset, so a distance kernel that
  /// visits the series out of order does not stall on memory. Does
  /// nothing on a pooled dataset, whose bytes a planned run brings in.
  /// Always inlined: GCC deems an out-of-line call that only prefetches
  /// free of effects and deletes it.
  [[gnu::always_inline]] void Prefetch(core::SeriesId i) const {
    if (source_ != nullptr) return;
    const auto* first = reinterpret_cast<const char*>((*data_)[i].data());
    const auto begin = reinterpret_cast<uintptr_t>(first) & ~(kCacheLine - 1);
    const uintptr_t end = reinterpret_cast<uintptr_t>(first) + series_bytes();
    for (uintptr_t line = begin; line < end; line += kCacheLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
  }

  /// Forgets the cursor position (e.g., between build and query phases).
  void ResetCursor() { cursor_ = kNoCursor; }

  /// Plans the reads that follow: `ids` are ascending local ids, a superset
  /// of what the caller will Read, in order (a read outside the plan is
  /// still served, as the start of a new run). The caller owns `ids` and
  /// keeps it alive until ClearPlan or the next SetPlan. Drops the current
  /// run and any held pin. Has no effect on an in-RAM dataset.
  void SetPlan(std::span<const core::SeriesId> ids);

  /// Returns to page-path reads, as if no plan had been set, and drops
  /// any held pin (a long-lived cursor calls this at the end of a query).
  void ClearPlan();

  /// True when reads go through a buffer pool, i.e. when a plan is used.
  bool pooled() const { return source_ != nullptr; }

  /// Drops the buffer-pool frame held since the last read (no-op for RAM
  /// datasets or when nothing is pinned). Long-lived readers call this at
  /// the end of each query: an idle reader must never sit on a frame —
  /// that is what makes the pool's blocking wait deadlock-free.
  void ReleasePin() { pin_.Release(); }

  const core::Dataset& data() const { return *data_; }
  size_t series_bytes() const { return data_->length() * sizeof(core::Value); }

 private:
  static constexpr int64_t kNoCursor = -2;
  static constexpr uintptr_t kCacheLine = 64;

  /// The one place bytes are fetched: through the pool when the dataset
  /// is file-backed, by dereference otherwise.
  core::SeriesView Fetch(core::SeriesId i, core::SearchStats* stats) {
    if (source_ == nullptr) return (*data_)[i];
    if (planned_) return FetchPlanned(i, stats);
    return source_->ReadPinned(base_ + i, &pin_, stats);
  }

  /// Serves series `i` from the run scratch, preading a new run first
  /// when `i` lies outside the current one.
  core::SeriesView FetchPlanned(core::SeriesId i, core::SearchStats* stats);

  const core::Dataset* data_;
  core::RawSeriesSource* source_;  // from data->raw_source(); may be null
  size_t base_;                    // data's offset within the source
  core::RawSeriesSource::Pin pin_;
  int64_t cursor_ = kNoCursor;

  // The plan and the run it last read: series [run_first_, run_first_ +
  // run_count_) sit in run_, and plan_[plan_next_] is the first planned
  // id not yet covered by a run.
  bool planned_ = false;
  std::span<const core::SeriesId> plan_;
  size_t plan_next_ = 0;
  size_t run_first_ = 0;
  size_t run_count_ = 0;
  size_t run_capacity_ = 0;  // series; allocated on the first run
  std::unique_ptr<core::Value[]> run_;
};

/// One cursor per traversal worker, kept for the whole query (a cursor
/// that reads planned runs then allocates its run scratch once, not on
/// every leaf). Indexed by core::TreeWorker::index(); no two threads may
/// share a cursor.
class WorkerCursors {
 public:
  WorkerCursors(const core::Dataset* data, size_t workers) {
    for (size_t w = 0; w < std::max<size_t>(1, workers); ++w) {
      cursors_.emplace_back(data);
    }
  }

  CountedStorage& operator[](size_t w) { return cursors_[w]; }

 private:
  std::deque<CountedStorage> cursors_;  // a deque: cursors do not move
};

/// Charges the read of one index leaf holding `series_count` series of
/// `series_bytes` bytes each: one random access (the paper's definition of
/// a random disk access for tree indexes) plus contiguous reads.
void ChargeLeafRead(size_t series_count, size_t series_bytes,
                    core::SearchStats* stats);

/// Charges a purely sequential scan segment of `series_count` series (no
/// initial seek; use ChargeScanStart for the first access of a pass).
void ChargeSequentialRead(size_t series_count, size_t series_bytes,
                          core::SearchStats* stats);

/// Charges the initial seek of a sequential pass over a file.
void ChargeScanStart(core::SearchStats* stats);

}  // namespace hydra::io

#endif  // HYDRA_IO_COUNTED_STORAGE_H_
