// Observability of the serve daemon: request counters, the summed
// SearchStats ledger of every executed query, and a log-scale latency
// histogram (obs::Histogram) from which the STATS reply derives bucketed
// p50/p95/p99 — whole-lifetime, with the documented quantile error bound
// (obs::Histogram::kRelativeError, one bucket ratio) instead of the
// sampling noise of a fixed-size latency ring. Each number is kept once,
// in the server's own obs::Registry: STATS and the `hydra stats --full`
// text dump both render from it.
#ifndef HYDRA_SERVE_METRICS_H_
#define HYDRA_SERVE_METRICS_H_

#include <array>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/search_stats.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/answer_cache.h"
#include "util/timer.h"

namespace hydra::serve {

/// Request-level metrics of one Server. Every metric is resolved in the
/// registry once, at construction, so recording is relaxed atomic adds:
/// no lock, no name lookup. The registry names are `serve.completed`,
/// `serve.rejected`, `serve.bad_queries`, `serve.malformed`,
/// `serve.accept_failures`, `serve.pings`, `serve.stats_requests`,
/// `serve.queries` (executed
/// queries), one `serve.<name>` per core::kLedgerCounters row, and the
/// histograms `serve.latency_seconds` and `serve.cpu_seconds`. Bucket
/// counts never decay — an operator watching a live daemon reads rates
/// by diffing STATS documents.
class ServerMetrics {
 public:
  ServerMetrics();

  ServerMetrics(const ServerMetrics&) = delete;
  ServerMetrics& operator=(const ServerMetrics&) = delete;

  /// One answered query: wall seconds from admission to response written,
  /// the query's stats ledger, and whether the answer came from the cache.
  /// Every answer observes its latency; only an executed one adds its
  /// ledger, since a hit replays work already counted at its miss.
  void RecordQuery(double latency_seconds, const core::SearchStats& stats,
                   bool cache_hit);
  /// One request refused by admission control (RESOURCE_EXHAUSTED).
  void RecordRejected() { rejected_->Add(1); }
  /// One request refused by semantic validation (BAD_QUERY).
  void RecordBadQuery() { bad_queries_->Add(1); }
  /// One connection dropped for malformed bytes (bad magic/CRC/version).
  void RecordMalformed() { malformed_->Add(1); }
  /// One failed accept (out of fds or memory, or a peer that reset); the
  /// acceptor backs off and retries.
  void RecordAcceptFailure() { accept_failures_->Add(1); }
  void RecordPing() { pings_->Add(1); }
  void RecordStatsRequest() { stats_requests_->Add(1); }

  /// The STATS reply document: uptime, QPS, bucketed latency percentiles
  /// with the histogram's non-empty buckets and error bound, request
  /// counters, cache counters with the derived hit rate, the summed
  /// SearchStats ledger keyed by the served method's name, the slow-query
  /// flight records, and the registry itself. A document reporting
  /// `completed` = N includes the ledgers of all N answers.
  std::string StatsJson(const AnswerCache::Counters& cache,
                        std::string_view method_name,
                        const std::vector<obs::FlightRecord>& slow_queries)
      const;

  const obs::Registry& registry() const { return registry_; }

 private:
  obs::Registry registry_;
  util::WallTimer uptime_;
  obs::Counter* const completed_;
  obs::Counter* const rejected_;
  obs::Counter* const bad_queries_;
  obs::Counter* const malformed_;
  obs::Counter* const accept_failures_;
  obs::Counter* const pings_;
  obs::Counter* const stats_requests_;
  obs::Counter* const queries_;
  /// Admission-to-answer latency of every answer, seconds.
  obs::Histogram* const latency_;
  /// Measured compute seconds of every executed query; its sum is the
  /// ledger's cpu_seconds.
  obs::Histogram* const cpu_seconds_;
  /// One counter per core::kLedgerCounters row, in table order.
  std::array<obs::Counter*, std::size(core::kLedgerCounters)> ledger_;
};

}  // namespace hydra::serve

#endif  // HYDRA_SERVE_METRICS_H_
