// The raw-series storage seam: an abstract source of individually
// addressed series reads, implemented by the out-of-core storage layer
// (storage::BufferPool over an mmap/pread-backed file). core knows only
// this interface, so the dependency points outward: storage depends on
// core, never the reverse.
//
// A Dataset optionally carries a RawSeriesSource (see Dataset::raw_source).
// When present, the query-time verification reads of the index methods —
// the disk-access pattern the paper's fig04/fig06/fig07 measure — are
// routed through it by io::CountedStorage instead of dereferencing the
// dataset's buffer, and the source records *measured* I/O counters into
// the SearchStats ledger (pool_hits/pool_misses/...), kept strictly apart
// from the modeled DiskModel counters. When absent (the in-RAM backend),
// reads stay plain pointer dereferences and the measured counters stay
// zero. Either way the bytes compared are identical, so answers are
// bit-identical across backends.
#ifndef HYDRA_CORE_RAW_SOURCE_H_
#define HYDRA_CORE_RAW_SOURCE_H_

#include <cstddef>
#include <cstdint>

#include "core/search_stats.h"
#include "core/types.h"

namespace hydra::core {

/// Abstract source of pinned raw-series reads. Implementations hand out
/// views into buffer-managed memory; the Pin guard keeps the underlying
/// page resident while the caller consumes the view.
class RawSeriesSource {
 public:
  /// Holds one page of one source resident. Reusable: passing the same Pin
  /// to a later ReadPinned releases the previous hold first (the
  /// pinned-page rule — a reader holds at most one pin and never fetches
  /// while holding a second, so a pool can never deadlock on pins even
  /// with a single frame). Destruction releases the hold.
  class Pin {
   public:
    Pin() = default;
    ~Pin() { Release(); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    /// Drops the hold (idempotent). Views obtained through this pin are
    /// invalid afterwards.
    void Release() {
      if (source_ != nullptr) {
        RawSeriesSource* source = source_;
        source_ = nullptr;
        source->Unpin(token_);
      }
    }

   private:
    friend class RawSeriesSource;
    RawSeriesSource* source_ = nullptr;
    uint64_t token_ = 0;
  };

  virtual ~RawSeriesSource() = default;

  /// Reads series `index`, recording measured counters into `stats` (may
  /// be null). The returned view stays valid until the next ReadPinned
  /// through the same pin, or until the pin is released — callers must
  /// consume it before the next read (every verification loop computes a
  /// distance immediately, so this costs nothing).
  virtual SeriesView ReadPinned(size_t index, Pin* pin,
                                SearchStats* stats) = 0;

  /// The skip-sequential run read: copies series [first, first + n) into
  /// `out` (n * series length values, caller-owned). Series on resident
  /// pages are copied from their frame and count as hits; series on
  /// absent pages are read from the file straight into `out`, without
  /// installing a frame or evicting one (each pread counts one miss).
  /// Never blocks on another reader's pin, so a caller may hold one.
  virtual void ReadRun(size_t first, size_t n, Value* out,
                       SearchStats* stats) = 0;

  /// Series per frame: the largest run a reader should buffer, so that a
  /// run's scratch never exceeds the memory one pin can already hold.
  virtual size_t series_per_frame() const = 0;

 protected:
  /// Releases the hold `token` identifies (called by Pin::Release).
  virtual void Unpin(uint64_t token) = 0;

  /// Pin plumbing for implementations: transfers the hold without
  /// exposing Pin internals publicly. BindPin assumes the pin is already
  /// released (callers release-then-bind).
  static void BindPin(Pin* pin, RawSeriesSource* source, uint64_t token) {
    pin->source_ = source;
    pin->token_ = token;
  }
  static RawSeriesSource* PinSource(const Pin& pin) { return pin.source_; }
  static uint64_t PinToken(const Pin& pin) { return pin.token_; }
};

}  // namespace hydra::core

#endif  // HYDRA_CORE_RAW_SOURCE_H_
