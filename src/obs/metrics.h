// Metrics registry: named counters and fixed-bucket log-scale
// histograms. Each serve::Server owns one; its STATS document and the
// `hydra stats --full` text dump render from it.
//
// Objects are created on first use and owned by the registry for its
// lifetime, so callers resolve raw pointers once and update them with
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

#include "util/check.h"

namespace hydra::util {
class JsonWriter;
}  // namespace hydra::util

namespace hydra::obs {

/// Monotonic counter. Lock-free; relaxed ordering by default (metrics are
/// statistical). A counter that publishes other metrics passes
/// release to Add and acquire to value().
class Counter {
 public:
  void Add(int64_t delta,
           std::memory_order order = std::memory_order_relaxed) {
    value_.fetch_add(delta, order);
  }
  int64_t value(std::memory_order order = std::memory_order_relaxed) const {
    return value_.load(order);
  }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed log-scale histogram for durations in seconds.
///
/// Bucket i covers (bound(i-1), bound(i)] with bound(i) =
/// kFirstBound * kGrowth^i; values <= kFirstBound land in bucket 0 and
/// values beyond the last bound clamp into the final bucket (recorded,
/// never dropped). Quantile() returns the upper bound of the bucket
/// holding the target rank, so it never underestimates and overestimates
/// by at most kRelativeError (plus clamping at the ends).
class Histogram {
 public:
  static constexpr size_t kBuckets = 128;
  static constexpr double kFirstBound = 1e-6;  // seconds
  /// The bucket growth ratio minus one, 2^(1/4) - 1: the largest relative
  /// overestimate of a bucketed quantile.
  static constexpr double kRelativeError = 0.18920711500272106;

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

/// Name -> metric map. Names are dotted lowercase paths
/// ("serve.latency_seconds", "serve.pool_misses"). A name is one kind
/// forever — asking for an existing name as a different kind CHECK-aborts
/// (metric registration is programmer-controlled, not user input).
/// Pointers it hands out live as long as the registry.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name) {
    return FindOrAdd(&counters_, histograms_, name);
  }
  Histogram* GetHistogram(const std::string& name) {
    return FindOrAdd(&histograms_, counters_, name);
  }

  /// Human-readable dump, one metric per line, sorted by name; histograms
  /// list count/sum/bucketed p50/p95/p99 plus their non-empty buckets.
  std::string TextDump() const;

  /// Writes the registry as the *value* of a pending key: an object with
  /// "counters" and "histograms" sections.
  void AppendJson(util::JsonWriter* json) const;

 private:
  /// Metric `name` of `metrics`, created on first use; `other_kind` must
  /// not hold the name.
  template <typename Metric, typename OtherKind>
  Metric* FindOrAdd(std::map<std::string, std::unique_ptr<Metric>>* metrics,
                    const OtherKind& other_kind, const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    HYDRA_CHECK_MSG(other_kind.count(name) == 0,
                    "metric name registered as a different kind");
    std::unique_ptr<Metric>& slot = (*metrics)[name];
    if (!slot) slot = std::make_unique<Metric>();
    return slot.get();
  }

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace hydra::obs

#endif  // HYDRA_OBS_METRICS_H_
