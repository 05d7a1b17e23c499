// Descriptive statistics used by the experiment harness and generators.
#ifndef HYDRA_UTIL_STATS_H_
#define HYDRA_UTIL_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace hydra::util {

/// Arithmetic mean of `xs`; 0 for an empty span.
double Mean(std::span<const double> xs);

/// Population standard deviation of `xs`; 0 for fewer than one element.
double Stddev(std::span<const double> xs);

/// The q-quantile (q in [0,1]) of `xs` with linear interpolation.
/// Copies and sorts internally; `xs` is left untouched.
double Quantile(std::span<const double> xs, double q);

/// Five-number summary of a sample.
struct Summary {
  double min = 0.0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// Computes the five-number summary plus mean of `xs`.
Summary Summarize(std::span<const double> xs);

/// Trimmed mean after dropping the `trim` smallest and `trim` largest values
/// (the paper's 10K-query extrapolation drops the best and worst 5 of 100).
double TrimmedMean(std::span<const double> xs, size_t trim);

}  // namespace hydra::util

#endif  // HYDRA_UTIL_STATS_H_
