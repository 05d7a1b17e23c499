// The raw-series storage seam: an abstract source of run reads over the
// raw file, implemented by the out-of-core storage layer
// (storage::BufferPool over an mmap/pread-backed file). core knows only
// this interface, so the dependency points outward: storage depends on
// core, never the reverse.
//
// A Dataset optionally carries a RawSeriesSource (see Dataset::raw_source).
// When present, the query-time verification reads of the index methods —
// the disk-access pattern the paper's fig04/fig06/fig07 measure — are
// routed through it by io::CountedStorage instead of dereferencing the
// dataset's buffer, and the source records *measured* I/O counters into
// the SearchStats ledger (pool_misses/pool_bytes_read/...), kept strictly
// apart from the modeled DiskModel counters. When absent (the in-RAM
// backend), reads stay plain pointer dereferences and the measured
// counters stay zero. Either way the bytes compared are identical, so
// answers are bit-identical across backends.
#ifndef HYDRA_CORE_RAW_SOURCE_H_
#define HYDRA_CORE_RAW_SOURCE_H_

#include <cstddef>

#include "core/search_stats.h"
#include "core/types.h"

namespace hydra::core {

/// Abstract source of skip-sequential run reads into caller memory.
class RawSeriesSource {
 public:
  virtual ~RawSeriesSource() = default;

  /// The run read: copies series [first, first + n) into `out` (n * series
  /// length values, caller-owned) with one read of the file, recording it
  /// into `stats` (may be null). `n` is at most the run BorrowRun granted,
  /// or 1. Never waits on another reader.
  virtual void ReadRun(size_t first, size_t n, Value* out,
                       SearchStats* stats) = 0;

  /// Lends run scratch from the source's memory budget: returns the series
  /// the caller may buffer per run — `series`, capped to the source's
  /// largest run — or 0 when the budget cannot cover that, in which case
  /// the caller reads one series at a time. Never blocks.
  virtual size_t BorrowRun(size_t series) = 0;

  /// Gives back a loan of `series` that BorrowRun granted.
  virtual void ReturnRun(size_t series) = 0;
};

}  // namespace hydra::core

#endif  // HYDRA_CORE_RAW_SOURCE_H_
