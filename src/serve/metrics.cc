// Implementation of the serve daemon's metrics and STATS rendering.
#include "serve/metrics.h"

#include <algorithm>

#include "util/json.h"

namespace hydra::serve {

ServerMetrics::ServerMetrics() = default;

void ServerMetrics::RecordQuery(double latency_seconds,
                                const core::SearchStats& stats,
                                bool cache_hit) {
  latency_.Observe(latency_seconds);
  // Mirror into the process-wide registry so `hydra stats --full` (and
  // the STATS "metrics" section) report serve latency alongside every
  // other registered metric.
  obs::Registry::Get()
      .GetHistogram("serve.latency_seconds")
      ->Observe(latency_seconds);
  // A hit replays a ledger already counted at its miss: no work merges.
  if (!cache_hit) obs::PublishSearchStats(stats, "serve");
  std::lock_guard<std::mutex> lock(mutex_);
  ++completed_;
  if (cache_hit) ++cache_hits_;
  if (!cache_hit) merged_.Add(stats);
}

void ServerMetrics::RecordRejected() {
  obs::Registry::Get().GetCounter("serve.rejected")->Add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  ++rejected_;
}

void ServerMetrics::RecordBadQuery() {
  obs::Registry::Get().GetCounter("serve.bad_queries")->Add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  ++bad_queries_;
}

void ServerMetrics::RecordMalformed() {
  obs::Registry::Get().GetCounter("serve.malformed")->Add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  ++malformed_;
}

void ServerMetrics::RecordPing() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++pings_;
}

void ServerMetrics::RecordStatsRequest() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_requests_;
}

ServerMetrics::Snapshot ServerMetrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  s.uptime_seconds = uptime_.Seconds();
  s.completed = completed_;
  s.rejected = rejected_;
  s.bad_queries = bad_queries_;
  s.malformed = malformed_;
  s.pings = pings_;
  s.stats_requests = stats_requests_;
  s.cache_hits = cache_hits_;
  if (s.uptime_seconds > 0.0) {
    s.qps = static_cast<double>(completed_) / s.uptime_seconds;
  }
  s.latency_samples = latency_.count();
  if (s.latency_samples > 0) {
    s.p50_ms = latency_.Quantile(0.50) * 1e3;
    s.p95_ms = latency_.Quantile(0.95) * 1e3;
    s.p99_ms = latency_.Quantile(0.99) * 1e3;
  }
  for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    const uint64_t count = latency_.bucket_count(i);
    if (count == 0) continue;
    s.bucket_bounds.push_back(obs::Histogram::BucketBound(i));
    s.bucket_counts.push_back(count);
  }
  s.merged = merged_;
  return s;
}

std::string StatsJson(const ServerMetrics::Snapshot& snapshot,
                      const AnswerCache::Counters& cache,
                      std::string_view method_name,
                      const std::vector<obs::FlightRecord>& slow_queries) {
  util::JsonWriter json;
  json.BeginObject();
  json.Key("uptime_seconds");
  json.Double(snapshot.uptime_seconds);
  json.Key("qps");
  json.Double(snapshot.qps);

  json.Key("requests");
  json.BeginObject();
  json.Key("completed");
  json.Uint(snapshot.completed);
  json.Key("rejected");
  json.Uint(snapshot.rejected);
  json.Key("bad_queries");
  json.Uint(snapshot.bad_queries);
  json.Key("malformed");
  json.Uint(snapshot.malformed);
  json.Key("pings");
  json.Uint(snapshot.pings);
  json.Key("stats");
  json.Uint(snapshot.stats_requests);
  json.EndObject();

  json.Key("latency");
  json.BeginObject();
  json.Key("p50_ms");
  json.Double(snapshot.p50_ms);
  json.Key("p95_ms");
  json.Double(snapshot.p95_ms);
  json.Key("p99_ms");
  json.Double(snapshot.p99_ms);
  json.Key("samples");
  json.Uint(snapshot.latency_samples);
  // Percentiles are bucketed: each is its bucket's upper bound, so it
  // never underestimates and overestimates by at most this relative
  // factor (the histogram's bucket growth ratio, 2^(1/4) - 1).
  json.Key("quantile_error_bound");
  json.Double(0.189207);
  json.Key("bucket_bounds_seconds");
  json.BeginArray();
  for (const double bound : snapshot.bucket_bounds) json.Double(bound);
  json.EndArray();
  json.Key("bucket_counts");
  json.BeginArray();
  for (const uint64_t count : snapshot.bucket_counts) json.Uint(count);
  json.EndArray();
  json.EndObject();

  json.Key("cache");
  json.BeginObject();
  json.Key("hits");
  json.Uint(cache.hits);
  json.Key("misses");
  json.Uint(cache.misses);
  json.Key("insertions");
  json.Uint(cache.insertions);
  json.Key("evictions");
  json.Uint(cache.evictions);
  json.Key("entries");
  json.Uint(cache.entries);
  json.Key("bytes");
  json.Uint(cache.bytes);
  json.Key("budget_bytes");
  json.Uint(cache.budget_bytes);
  json.Key("hit_rate");
  const uint64_t lookups = cache.hits + cache.misses;
  json.Double(lookups == 0
                  ? 0.0
                  : static_cast<double>(cache.hits) /
                        static_cast<double>(lookups));
  json.EndObject();

  // The merged per-method ledger; one served method today, but the key
  // structure already accommodates a multi-method daemon.
  json.Key("search_stats");
  json.BeginObject();
  json.Key(method_name);
  json.BeginObject();
  // Table order: modeled counters, then the measured pool counters (all
  // zero when the daemon serves the in-RAM backend).
  for (const core::LedgerCounter& counter : core::kLedgerCounters) {
    json.Key(counter.name);
    json.Int(snapshot.merged.*counter.member);
  }
  json.Key("cpu_seconds");
  json.Double(snapshot.merged.cpu_seconds);
  json.EndObject();
  json.EndObject();

  // Flight recorder: the slowest requests the daemon has answered, with
  // their per-phase wall-time breakdown.
  json.Key("slow_queries");
  json.BeginArray();
  for (const obs::FlightRecord& record : slow_queries) {
    json.BeginObject();
    json.Key("request_id");
    json.Uint(record.request_id);
    json.Key("query");
    json.String(record.label);
    json.Key("total_ms");
    json.Double(record.total_seconds * 1e3);
    json.Key("cache_hit");
    json.Bool(record.cache_hit);
    json.Key("phases");
    json.BeginObject();
    for (const obs::FlightPhase& phase : record.phases) {
      json.Key(phase.name);
      json.Double(phase.seconds * 1e3);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();

  // The process-wide metrics registry (counters/gauges/histograms).
  json.Key("metrics");
  obs::Registry::Get().AppendJson(&json);

  json.EndObject();
  return json.str();
}

}  // namespace hydra::serve
