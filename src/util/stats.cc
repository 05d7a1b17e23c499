#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hydra::util {

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double Quantile(std::span<const double> xs, double q) {
  HYDRA_CHECK(!xs.empty());
  HYDRA_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary Summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  s.min = Quantile(xs, 0.0);
  s.q25 = Quantile(xs, 0.25);
  s.median = Quantile(xs, 0.5);
  s.q75 = Quantile(xs, 0.75);
  s.max = Quantile(xs, 1.0);
  s.mean = Mean(xs);
  return s;
}

double TrimmedMean(std::span<const double> xs, size_t trim) {
  HYDRA_CHECK_MSG(xs.size() > 2 * trim, "TrimmedMean: sample too small");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (size_t i = trim; i < sorted.size() - trim; ++i) sum += sorted[i];
  return sum / static_cast<double>(sorted.size() - 2 * trim);
}

}  // namespace hydra::util
