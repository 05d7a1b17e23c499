// Implementation of the serve daemon's metrics and STATS rendering.
#include "serve/metrics.h"

#include <atomic>
#include <cstdint>

#include "util/json.h"

namespace hydra::serve {

ServerMetrics::ServerMetrics()
    : completed_(registry_.GetCounter("serve.completed")),
      rejected_(registry_.GetCounter("serve.rejected")),
      bad_queries_(registry_.GetCounter("serve.bad_queries")),
      malformed_(registry_.GetCounter("serve.malformed")),
      accept_failures_(registry_.GetCounter("serve.accept_failures")),
      pings_(registry_.GetCounter("serve.pings")),
      stats_requests_(registry_.GetCounter("serve.stats_requests")),
      queries_(registry_.GetCounter("serve.queries")),
      latency_(registry_.GetHistogram("serve.latency_seconds")),
      cpu_seconds_(registry_.GetHistogram("serve.cpu_seconds")) {
  for (size_t i = 0; i < ledger_.size(); ++i) {
    ledger_[i] = registry_.GetCounter(std::string("serve.") +
                                      core::kLedgerCounters[i].name);
  }
}

void ServerMetrics::RecordQuery(double latency_seconds,
                                const core::SearchStats& stats,
                                bool cache_hit) {
  latency_->Observe(latency_seconds);
  // A hit replays a ledger already counted at its miss: no work adds.
  if (!cache_hit) {
    queries_->Add(1);
    for (size_t i = 0; i < ledger_.size(); ++i) {
      ledger_[i]->Add(stats.*core::kLedgerCounters[i].member);
    }
    cpu_seconds_->Observe(stats.cpu_seconds);
  }
  // Completed counts last, with release: a STATS render that reads this
  // count with acquire sees every add above. (Ordered operations rather
  // than fences: ThreadSanitizer does not model atomic_thread_fence.)
  completed_->Add(1, std::memory_order_release);
}

std::string ServerMetrics::StatsJson(
    const AnswerCache::Counters& cache, std::string_view method_name,
    const std::vector<obs::FlightRecord>& slow_queries) const {
  const int64_t completed = completed_->value(std::memory_order_acquire);
  const double uptime_seconds = uptime_.Seconds();
  util::JsonWriter json;
  json.BeginObject();
  json.Key("uptime_seconds");
  json.Double(uptime_seconds);
  json.Key("qps");
  json.Double(uptime_seconds > 0.0
                  ? static_cast<double>(completed) / uptime_seconds
                  : 0.0);

  json.Key("requests");
  json.BeginObject();
  json.Key("completed");
  json.Int(completed);
  json.Key("rejected");
  json.Int(rejected_->value());
  json.Key("bad_queries");
  json.Int(bad_queries_->value());
  json.Key("malformed");
  json.Int(malformed_->value());
  json.Key("pings");
  json.Int(pings_->value());
  json.Key("stats");
  json.Int(stats_requests_->value());
  json.EndObject();

  // Percentiles are bucketed, in milliseconds: each is its bucket's upper
  // bound, so it never underestimates and overestimates by at most
  // quantile_error_bound relative. Quantile() reads 0 while empty.
  json.Key("latency");
  json.BeginObject();
  json.Key("p50_ms");
  json.Double(latency_->Quantile(0.50) * 1e3);
  json.Key("p95_ms");
  json.Double(latency_->Quantile(0.95) * 1e3);
  json.Key("p99_ms");
  json.Double(latency_->Quantile(0.99) * 1e3);
  json.Key("samples");
  json.Uint(latency_->count());
  json.Key("quantile_error_bound");
  json.Double(obs::Histogram::kRelativeError);
  // Non-empty buckets: parallel arrays of upper bounds and counts.
  std::vector<uint64_t> counts;
  json.Key("bucket_bounds_seconds");
  json.BeginArray();
  for (size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    const uint64_t count = latency_->bucket_count(i);
    if (count == 0) continue;
    json.Double(obs::Histogram::BucketBound(i));
    counts.push_back(count);
  }
  json.EndArray();
  json.Key("bucket_counts");
  json.BeginArray();
  for (const uint64_t count : counts) json.Uint(count);
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
  for (size_t i = 0; i < ledger_.size(); ++i) {
    json.Key(core::kLedgerCounters[i].name);
    json.Int(ledger_[i]->value());
  }
  json.Key("cpu_seconds");
  json.Double(cpu_seconds_->sum());
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
    json.Key("inline");
    json.Bool(record.answered_inline);
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

  json.Key("metrics");
  registry_.AppendJson(&json);

  json.EndObject();
  return json.str();
}

}  // namespace hydra::serve
