// Instrumented access to the raw data file. Two ledgers meet here:
//   - *modeled* counters (sequential_reads / random_seeks / bytes_read),
//     charged with the paper's sequential/random semantics and converted
//     to seconds by io::DiskModel — these exist for every backend;
//   - *measured* counters (pool_misses / pool_bytes_read / ...), recorded
//     only when the dataset is file-backed (Dataset::raw_source() non-null):
//     the read is then a real pread of the file by its RunReader instead
//     of a pointer dereference.
// The two never mix: routing a read through the reader does not change
// what is charged to the model, and the measured counters are never fed to
// the DiskModel. Answers are bit-identical either way — the backend changes
// where the bytes live, never which bytes are compared.
#ifndef HYDRA_IO_COUNTED_STORAGE_H_
#define HYDRA_IO_COUNTED_STORAGE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>

#include "core/dataset.h"
#include "core/search_stats.h"
#include "core/types.h"
#include "util/aligned.h"

namespace hydra::io {

class RunReader;
class SeriesFile;

/// Cursor-tracking reader over the raw data file (the Dataset).
///
/// A read of series i is sequential when it directly follows a read of
/// series i-1; otherwise it costs one random seek plus the read itself.
/// This reproduces the paper's skip-sequential accounting for ADS+ and
/// VA+file: every skip is one random access.
///
/// The returned view stays valid until this reader's next Read /
/// ReadPrecharged (on a pooled dataset the view points into the cursor's
/// run scratch); callers consume the series — compute its distance —
/// before reading the next. One CountedStorage serves one thread;
/// concurrent cursors each get their own (they share the RunReader).
///
/// On a pooled dataset every read is a run read (RunReader::ReadRun) into
/// the cursor's run scratch, which the cursor borrows from the reader's
/// budget at its first run and returns when destroyed (a cursor the budget
/// cannot cover reads one series at a time). Without a plan a read outside
/// the current run is a run of one series. Planned reads (SetPlan): a
/// filter-and-refine caller that reads its survivors in ascending file
/// order hands the cursor its candidate ids up front; a read outside the
/// current run then preads one run, from the read series over the
/// following planned candidates while each gap stays within kRunGap series
/// and the run fits the scratch. Reads inside the run are served from that
/// scratch. Every pooled read counts as one pool_direct_read. Only the
/// bytes' path changes: the modeled charging is the same with or without a
/// plan, and with or without a pool.
class CountedStorage {
 public:
  /// Largest gap, in series, a run reads through to reach the next planned
  /// candidate; a wider gap ends the run. Wider gaps mean fewer preads but
  /// more bytes read and not verified.
  static constexpr size_t kRunGap = 6;
  /// Largest run, in series (further capped by RunReader::run_cap): how
  /// far a run reads ahead over candidates the running bound may yet prune.
  static constexpr size_t kRunMaxSeries = 128;

  explicit CountedStorage(const core::Dataset* data);
  /// Returns the run scratch's loan to the reader.
  ~CountedStorage();
  CountedStorage(const CountedStorage&) = delete;
  CountedStorage& operator=(const CountedStorage&) = delete;

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
  /// keeps it alive until the next SetPlan or its last read. Drops the
  /// current run. Has no effect on an in-RAM dataset.
  void SetPlan(std::span<const core::SeriesId> ids);

  const core::Dataset& data() const { return *data_; }
  size_t series_bytes() const { return data_->length() * sizeof(core::Value); }

 private:
  static constexpr int64_t kNoCursor = -2;
  static constexpr uintptr_t kCacheLine = util::kCacheLineBytes;

  /// The one place bytes are fetched: as a run read when the dataset is
  /// file-backed, by dereference otherwise.
  core::SeriesView Fetch(core::SeriesId i, core::SearchStats* stats) {
    if (source_ == nullptr) return (*data_)[i];
    return FetchRun(i, stats);
  }

  /// Serves series `i` from the run scratch, preading a new run first
  /// when `i` lies outside the current one.
  core::SeriesView FetchRun(core::SeriesId i, core::SearchStats* stats);

  const core::Dataset* data_;
  RunReader* source_;  // from data->raw_source(); may be null
  size_t base_;        // data's offset within the file
  int64_t cursor_ = kNoCursor;

  // The plan and the run it last read: series [run_first_, run_first_ +
  // run_count_) sit in run_, and plan_[plan_next_] is the first planned
  // id not yet covered by a run (an empty plan: every run is one series).
  std::span<const core::SeriesId> plan_;
  size_t plan_next_ = 0;
  size_t run_first_ = 0;
  size_t run_count_ = 0;
  size_t run_capacity_ = 0;  // series; allocated on the first run
  size_t lent_ = 0;          // series of run_capacity_ borrowed from source_
  util::LineAlignedArray<core::Value> run_;  // line-aligned, like Dataset
};

/// Geometry of a RunReader: the run scratch it may lend, and its largest
/// run.
struct RunReaderOptions {
  /// Cap on the run scratch lent to all open cursors at once.
  size_t budget_bytes = size_t{64} << 20;
  /// Largest run; rounded down to a whole number of series (and up to at
  /// least one series).
  size_t page_bytes = size_t{1} << 20;
};

/// The raw layer of the out-of-core backend: every read is one pread(2) of
/// consecutive series of a SeriesFile straight into the caller's buffer,
/// with measured accounting — the skip-sequential access the paper charges
/// a leaf or a refined candidate, made an actual bounded I/O path instead
/// of a pointer dereference. It caches nothing, so nothing is evicted,
/// pinned or waited for.
///
/// Memory is bounded: the budget caps the run scratch lent to all open
/// cursors at once (BorrowRun / ReturnRun, one atomic). A cursor the
/// budget cannot cover reads one series at a time from a one-series
/// scratch of its own, so no read ever waits for a loan.
///
/// Counters: each run is one pool_miss and its bytes in the caller's
/// SearchStats — *measured*, disjoint from the modeled DiskModel counters.
/// pool_hits and pool_evictions stay 0: there is no resident page.
class RunReader {
 public:
  /// `file` must stay open for the reader's lifetime.
  RunReader(const SeriesFile* file, const RunReaderOptions& options);

  /// Copies series [first, first + n) of the file into `out` (n * series
  /// length values, caller-owned) with one pread, recording it into
  /// `stats` (may be null). `n` is at most max_run_series(). An I/O
  /// failure (the backing file truncated or replaced mid-run) CHECK-aborts
  /// with the pread's typed message: by then the data the query was
  /// promised no longer exists, and a wrong answer would be worse than a
  /// crash.
  void ReadRun(size_t first, size_t n, core::Value* out,
               core::SearchStats* stats);

  /// Lends run scratch from the budget: returns the series the caller may
  /// buffer per run — `series`, capped to max_run_series() — or 0 when the
  /// budget cannot cover that right now, in which case the caller reads
  /// one series at a time. Never blocks.
  size_t BorrowRun(size_t series);
  /// Gives back a loan of `series` that BorrowRun granted.
  void ReturnRun(size_t series);

  /// The longest run a cursor reads: CountedStorage::kRunMaxSeries capped
  /// by max_run_series(), or 1 when the whole budget cannot lend that
  /// many. Cursors borrow this much at their first run.
  size_t run_cap() const;

  /// Geometry, fixed at construction: the largest run in series, and the
  /// budget as given and in whole series.
  size_t max_run_series() const { return max_run_; }
  size_t budget_bytes() const { return budget_bytes_; }
  size_t budget_series() const;
  /// Series of the budget not lent out right now.
  size_t available_series() const {
    return available_.load(std::memory_order_relaxed);
  }

 private:
  const SeriesFile* file_;
  size_t max_run_;
  size_t budget_bytes_;
  std::atomic<size_t> available_;
};

/// One cursor per traversal worker, kept for the whole query (a cursor
/// that reads planned runs then allocates its run scratch once, not on
/// every leaf). Indexed by the worker: core::TreeWorker::index(), or the
/// `w` of a core::ParallelScan block; no two threads may share a cursor.
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
