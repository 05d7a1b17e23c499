// Unified metrics registry: named counters, gauges, and fixed-bucket
// log-scale histograms, shared by the serve daemon's STATS document and
// the CLI's `hydra stats --full` text dump.
//
// Objects are created on first use and owned by the registry for the
// process lifetime, so callers hold raw pointers and update them with
// lock-free atomics; the registry mutex guards only name lookup and
// snapshotting. Histograms use a fixed logarithmic grid (first bound
// 1 microsecond, ratio 2^(1/4) per bucket, 128 buckets ≈ up to 71 min),
// so a bucketed quantile overestimates the true quantile by at most one
// bucket ratio: relative error <= 2^(1/4) - 1 ≈ 18.9%.
#ifndef HYDRA_OBS_METRICS_H_
#define HYDRA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/search_stats.h"

namespace hydra::util {
class JsonWriter;
}  // namespace hydra::util

namespace hydra::obs {

/// Monotonic counter. Lock-free; relaxed ordering (metrics are
/// statistical, not synchronization).
class Counter {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed log-scale histogram for durations in seconds.
///
/// Bucket i covers (bound(i-1), bound(i)] with bound(i) =
/// kFirstBound * kGrowth^i; values <= kFirstBound land in bucket 0 and
/// values beyond the last bound clamp into the final bucket (recorded,
/// never dropped). Quantile() returns the upper bound of the bucket
/// holding the target rank, so it never underestimates and overestimates
/// by at most kGrowth - 1 ≈ 18.9% relative (plus clamping at the ends).
class Histogram {
 public:
  static constexpr size_t kBuckets = 128;
  static constexpr double kFirstBound = 1e-6;  // seconds

  /// Upper bound of bucket `index`, in seconds.
  static double BucketBound(size_t index);
  /// The bucket a value lands in (clamped to [0, kBuckets)).
  static size_t BucketIndex(double value);

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  /// Bucketed quantile, q in [0, 1]; 0 when the histogram is empty.
  double Quantile(double q) const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Process-wide name -> metric map. Names are dotted lowercase paths
/// ("serve.latency_seconds", "query.pool_misses"). A name is one kind
/// forever — asking for an existing name as a different kind CHECK-aborts
/// (metric registration is programmer-controlled, not user input).
class Registry {
 public:
  static Registry& Get();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Human-readable dump, one metric per line, sorted by name; histograms
  /// list count/sum/bucketed p50/p95/p99 plus their non-empty buckets.
  std::string TextDump() const;

  /// Writes the registry as the *value* of a pending key: an object with
  /// "counters", "gauges", and "histograms" sections.
  void AppendJson(util::JsonWriter* json) const;

  /// Drops every registered metric. Tests only — outstanding pointers
  /// from earlier GetCounter/... calls dangle after this.
  void ResetForTest();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Folds one query's SearchStats ledger into the registry: a counter
/// `<prefix>.<name>` per core::kLedgerCounters row (e.g.
/// "query.distance_computations"), `<prefix>.queries` and the
/// `<prefix>.cpu_seconds` histogram, for CLI runs and the serve daemon.
void PublishSearchStats(const core::SearchStats& stats,
                        const std::string& prefix);

}  // namespace hydra::obs

#endif  // HYDRA_OBS_METRICS_H_
