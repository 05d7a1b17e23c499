// Implementation of the metrics registry: histogram bucket math, the
// text dump, and the JSON section shared with the serve STATS document.
#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/json.h"

namespace hydra::obs {

double Histogram::BucketBound(size_t index) {
  // bound(i) = kFirstBound * 2^(i/4); exp2 keeps the grid exact enough
  // that BucketIndex(BucketBound(i)) == i (verified by unit test).
  return kFirstBound * std::exp2(static_cast<double>(index) / 4.0);
}

size_t Histogram::BucketIndex(double value) {
  if (!(value > kFirstBound)) return 0;  // also catches NaN and negatives
  // Smallest i with bound(i) >= value: i = ceil(4 * log2(value / first)).
  const double exact = 4.0 * std::log2(value / kFirstBound);
  double index = std::ceil(exact);
  // log2 rounding can land exactly on a boundary and tip it up one
  // bucket; nudge values within one ulp-scale epsilon back down.
  if (index - exact > 1.0 - 1e-9 &&
      BucketBound(static_cast<size_t>(index) - 1) >= value) {
    index -= 1.0;
  }
  if (index >= static_cast<double>(kBuckets)) return kBuckets - 1;
  return static_cast<size_t>(index);
}

void Histogram::Observe(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based; ceil so q=0.5 over 2
  // samples picks the first.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(q * static_cast<double>(total))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cumulative += bucket_count(i);
    if (cumulative >= rank) return BucketBound(i);
  }
  return BucketBound(kBuckets - 1);
}

std::string Registry::TextDump() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    out << "counter " << name << " " << counter->value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out << "histogram " << name << " count=" << histogram->count()
        << " sum=" << histogram->sum()
        << " p50=" << histogram->Quantile(0.50)
        << " p95=" << histogram->Quantile(0.95)
        << " p99=" << histogram->Quantile(0.99) << "\n";
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      const uint64_t count = histogram->bucket_count(i);
      if (count == 0) continue;
      out << "  le " << Histogram::BucketBound(i) << " : " << count << "\n";
    }
  }
  return out.str();
}

void Registry::AppendJson(util::JsonWriter* json) const {
  std::lock_guard<std::mutex> lock(mutex_);
  json->BeginObject();
  json->Key("counters");
  json->BeginObject();
  for (const auto& [name, counter] : counters_) {
    json->Key(name);
    json->Int(counter->value());
  }
  json->EndObject();
  json->Key("histograms");
  json->BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    json->Key(name);
    json->BeginObject();
    json->Key("count");
    json->Uint(histogram->count());
    json->Key("sum");
    json->Double(histogram->sum());
    json->Key("p50");
    json->Double(histogram->Quantile(0.50));
    json->Key("p95");
    json->Double(histogram->Quantile(0.95));
    json->Key("p99");
    json->Double(histogram->Quantile(0.99));
    // Sparse buckets: parallel arrays of non-empty upper bounds + counts.
    json->Key("bucket_bounds");
    json->BeginArray();
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (histogram->bucket_count(i) == 0) continue;
      json->Double(Histogram::BucketBound(i));
    }
    json->EndArray();
    json->Key("bucket_counts");
    json->BeginArray();
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      const uint64_t count = histogram->bucket_count(i);
      if (count == 0) continue;
      json->Uint(count);
    }
    json->EndArray();
    json->EndObject();
  }
  json->EndObject();
  json->EndObject();
}

}  // namespace hydra::obs
