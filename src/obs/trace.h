// Low-overhead span tracer: per-thread ring buffers of RAII-scoped spans
// with monotonic timestamps, exported as Chrome trace-event JSON that
// Perfetto (ui.perfetto.dev) loads directly.
//
// Design contract:
//   - Disabled cost is one relaxed atomic load + branch per span site
//     (`Tracer::enabled()`); no allocation, no lock, no clock read.
//   - Enabled cost is two steady_clock reads plus six relaxed stores into
//     the calling thread's own ring slot; threads never contend on a lock
//     to record (the registry mutex is only taken twice per thread: at
//     first use, to take a ring, and at exit, to hand it back).
//   - Rings are recycled: an exiting thread's ring goes onto a free list
//     and the next new thread adopts it and appends to it, so a process
//     that spawns workers per query holds as many rings as it ever had
//     threads alive at once, and no event is lost before a flush.
//   - Rings are fixed capacity and overwrite-oldest on wrap; the total
//     write index keeps counting, so the flusher reports exactly how many
//     events were dropped instead of silently truncating.
//   - Span names (and arg names) must be string literals or other
//     static-lifetime strings: the ring stores the pointer, not a copy.
//   - Flushing (`Collect`/`WriteJson`) may run concurrently with
//     recording: every slot field is individually atomic (relaxed), and
//     the write index is published with release/acquire, so readers see
//     fully-written events for every slot except possibly the single one
//     being overwritten at that instant — that one may mix fields from
//     two events but never holds an invalid pointer. In practice hydra
//     flushes at quiesce points (end of a CLI command, daemon STATS).
#ifndef HYDRA_OBS_TRACE_H_
#define HYDRA_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace hydra::obs {

/// A flushed span, plain data (see ThreadRing for the in-ring layout).
struct CollectedEvent {
  const char* name = nullptr;
  const char* arg_name = nullptr;  // nullptr when the span carries no arg
  int64_t arg_value = 0;
  uint64_t start_ns = 0;  // since the tracer epoch
  uint64_t dur_ns = 0;
  uint32_t depth = 0;  // nesting depth on the recording thread, 0 = root
  // The recording ring's small sequential id. A ring is reused only after
  // its earlier owner has exited, so one tid may name several threads in
  // turn, but never two at once.
  uint32_t tid = 0;
};

/// One thread's span storage. Only the owning thread records; any thread
/// may Collect (see the header comment for the concurrency contract). A
/// ring passes to a new owner only through the tracer's free list, under
/// its mutex.
class ThreadRing {
 public:
  ThreadRing(uint32_t tid, size_t capacity);

  ThreadRing(const ThreadRing&) = delete;
  ThreadRing& operator=(const ThreadRing&) = delete;

  /// Records one completed span. Owning thread only.
  void Record(const char* name, const char* arg_name, int64_t arg_value,
              uint64_t start_ns, uint64_t dur_ns, uint32_t depth);

  /// Appends the ring's surviving events to `out` and adds the number of
  /// overwritten (lost) events to `*dropped`.
  void Collect(std::vector<CollectedEvent>* out, uint64_t* dropped) const;

  /// Forgets all recorded events (the drop counter restarts too).
  void Clear();

  uint32_t tid() const { return tid_; }
  size_t capacity() const { return capacity_; }

 private:
  // Field-level atomics so a concurrent flush is race-free under TSan;
  // relaxed everywhere except the write-index publish (release/acquire).
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> arg_name{nullptr};
    std::atomic<int64_t> arg_value{0};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint32_t> depth{0};
  };

  const uint32_t tid_;
  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  // Total events ever recorded; slot = index % capacity. Monotonic, so
  // dropped = max(0, written - capacity).
  std::atomic<uint64_t> write_index_{0};
};

/// Process-wide tracer. One instance (`Tracer::Get()`); disabled unless a
/// `--trace <path>` flag (or a test/bench) calls Enable().
class Tracer {
 public:
  static constexpr size_t kDefaultRingCapacity = 1 << 16;

  static Tracer& Get();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Turns recording on. `ring_capacity` applies to rings created after
  /// this call (existing rings, in use or free, keep theirs).
  void Enable(size_t ring_capacity = kDefaultRingCapacity);
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the tracer epoch (process start of tracing use).
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// The calling thread's ring. On first use the thread adopts a ring an
  /// exited thread handed back, or registers a new one.
  ThreadRing* ring();

  /// Hands an exiting thread's ring back for the next new thread.
  void Release(std::shared_ptr<ThreadRing> ring);

  /// Attaches a key/value tag to the trace (emitted in "otherData"), e.g.
  /// the selected kernel dispatch set or the traced method's name.
  void SetMeta(const std::string& key, std::string value);

  /// Drops all recorded events and meta tags (rings stay registered).
  void Clear();

  struct CollectResult {
    size_t events = 0;    // events appended to `out`
    uint64_t dropped = 0; // events lost to ring wraparound, all threads
  };
  /// Gathers every thread's surviving events into `out`.
  CollectResult Collect(std::vector<CollectedEvent>* out) const;

  /// Serializes all recorded events as a Chrome trace-event JSON document
  /// (the `{"traceEvents": [...]}` object form Perfetto loads).
  std::string ToJson() const;

  /// ToJson() to a file. Returns a typed error (not a CHECK abort) when
  /// the path is unwritable.
  util::Status WriteJson(const std::string& path) const;

 private:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  std::atomic<bool> enabled_{false};
  const std::chrono::steady_clock::time_point epoch_;
  // Guards rings_, free_ and meta_ (not slots).
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadRing>> rings_;  // every ring, by tid
  std::vector<std::shared_ptr<ThreadRing>> free_;   // rings of exited threads
  std::vector<std::pair<std::string, std::string>> meta_;
  size_t ring_capacity_ = kDefaultRingCapacity;
};

/// RAII span: records [construction, destruction) into the calling
/// thread's ring when tracing is enabled; a single relaxed load + branch
/// otherwise. `name` (and `arg_name`) must outlive the tracer — use
/// string literals.
class ObsSpan {
 public:
  explicit ObsSpan(const char* name) : active_(Tracer::Get().enabled()) {
    if (active_) Begin(name);
  }
  ObsSpan(const char* name, const char* arg_name, int64_t arg_value)
      : active_(Tracer::Get().enabled()) {
    if (active_) {
      Begin(name);
      arg_name_ = arg_name;
      arg_value_ = arg_value;
    }
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  /// Attaches (or updates) the span's numeric argument before it closes —
  /// for counts only known at the end of the scope.
  void SetArg(const char* arg_name, int64_t value) {
    if (active_) {
      arg_name_ = arg_name;
      arg_value_ = value;
    }
  }

  ~ObsSpan() {
    if (active_) End();
  }

 private:
  void Begin(const char* name);
  void End();

  bool active_;
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  int64_t arg_value_ = 0;
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
};

}  // namespace hydra::obs

// Scoped-span helpers; the variable name is line-unique so several spans
// can open in one scope.
#define HYDRA_OBS_CONCAT_INNER_(a, b) a##b
#define HYDRA_OBS_CONCAT_(a, b) HYDRA_OBS_CONCAT_INNER_(a, b)
#define HYDRA_OBS_SPAN(name) \
  ::hydra::obs::ObsSpan HYDRA_OBS_CONCAT_(hydra_obs_span_, __LINE__)(name)
#define HYDRA_OBS_SPAN_ARG(name, arg_name, arg_value)                   \
  ::hydra::obs::ObsSpan HYDRA_OBS_CONCAT_(hydra_obs_span_, __LINE__)(   \
      name, arg_name, static_cast<int64_t>(arg_value))

#endif  // HYDRA_OBS_TRACE_H_
