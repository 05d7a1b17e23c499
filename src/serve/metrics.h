// Observability of the serve daemon: monotonic request counters, the
// merged SearchStats ledger of every query executed, and a log-scale
// latency histogram (obs::Histogram) from which the STATS reply derives
// bucketed p50/p95/p99 — whole-lifetime, with a documented quantile error
// bound (<= 18.9% relative, one histogram bucket ratio) instead of the
// sampling noise of the old fixed-size latency ring. One instance per
// Server, written by every worker, snapshotted by STATS; observations are
// mirrored into the process-wide obs::Registry ("serve.latency_seconds")
// so `hydra stats --full` sees them too.
#ifndef HYDRA_SERVE_METRICS_H_
#define HYDRA_SERVE_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/search_stats.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/answer_cache.h"
#include "util/timer.h"

namespace hydra::serve {

/// Thread-safe request-level metrics. Counters and the merged ledger are
/// guarded by one mutex; the latency histogram is lock-free and
/// whole-lifetime (bucket counts never decay — an operator watching a
/// live daemon reads rates by diffing snapshots).
class ServerMetrics {
 public:
  ServerMetrics();

  ServerMetrics(const ServerMetrics&) = delete;
  ServerMetrics& operator=(const ServerMetrics&) = delete;

  /// One answered query: wall seconds from admission to response written,
  /// the query's stats ledger, and whether the answer came from the cache.
  /// Latency goes to the histogram and the obs::Registry; only an executed
  /// answer merges and publishes ("serve.*") its ledger, since a hit
  /// replays work already counted at its miss.
  void RecordQuery(double latency_seconds, const core::SearchStats& stats,
                   bool cache_hit);
  /// One request refused by admission control (RESOURCE_EXHAUSTED).
  void RecordRejected();
  /// One request refused by semantic validation (BAD_QUERY).
  void RecordBadQuery();
  /// One connection dropped for malformed bytes (bad magic/CRC/version).
  void RecordMalformed();
  void RecordPing();
  void RecordStatsRequest();

  /// Consistent copy of everything, taken under the one metrics lock
  /// (histogram reads are relaxed — bucketed quantiles tolerate a
  /// concurrent observation landing mid-snapshot).
  struct Snapshot {
    double uptime_seconds = 0.0;
    uint64_t completed = 0;
    uint64_t rejected = 0;
    uint64_t bad_queries = 0;
    uint64_t malformed = 0;
    uint64_t pings = 0;
    uint64_t stats_requests = 0;
    uint64_t cache_hits = 0;
    /// completed / uptime_seconds (0 while nothing completed).
    double qps = 0.0;
    /// Bucketed tail percentiles of the latency histogram, milliseconds.
    /// Each is the upper bound of its quantile's bucket: never an
    /// underestimate, at most 2^(1/4)-1 ≈ 18.9% relative over.
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    /// Total latency observations (whole daemon lifetime).
    uint64_t latency_samples = 0;
    /// Non-empty histogram buckets: parallel arrays of upper bounds
    /// (seconds) and observation counts.
    std::vector<double> bucket_bounds;
    std::vector<uint64_t> bucket_counts;
    /// Every executed query's ledger, accumulated (cache hits add none).
    core::SearchStats merged;
  };
  Snapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  util::WallTimer uptime_;
  /// Admission-to-answer latency, seconds. Owned per server (snapshot
  /// percentiles describe *this* daemon); mirrored into the registry.
  obs::Histogram latency_;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t bad_queries_ = 0;
  uint64_t malformed_ = 0;
  uint64_t pings_ = 0;
  uint64_t stats_requests_ = 0;
  uint64_t cache_hits_ = 0;
  core::SearchStats merged_;
};

/// Renders the STATS reply document: uptime, QPS, bucketed latency
/// percentiles with the histogram's non-empty buckets and error bound,
/// request counters, cache counters with the derived hit rate, the merged
/// SearchStats ledger keyed by the served method's name, the slow-query
/// flight records, and the process-wide metrics registry.
std::string StatsJson(const ServerMetrics::Snapshot& snapshot,
                      const AnswerCache::Counters& cache,
                      std::string_view method_name,
                      const std::vector<obs::FlightRecord>& slow_queries);

}  // namespace hydra::serve

#endif  // HYDRA_SERVE_METRICS_H_
