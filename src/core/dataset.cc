#include "core/dataset.h"

#include <cmath>

#include "util/check.h"

namespace hydra::core {

Dataset::Dataset(std::string name, size_t length)
    : name_(std::move(name)), length_(length) {
  HYDRA_CHECK_MSG(length_ > 0, "Dataset series length must be positive");
}

Dataset Dataset::BorrowedView(std::string name, const Value* values,
                              size_t count, size_t length) {
  HYDRA_CHECK_MSG(length > 0, "BorrowedView series length must be positive");
  HYDRA_CHECK_MSG(values != nullptr || count == 0,
                  "BorrowedView needs a buffer for a non-empty dataset");
  Dataset view;
  view.name_ = std::move(name);
  view.length_ = length;
  view.count_ = count;
  // A zero-length borrow still needs a non-null marker so the view stays
  // read-only (is_slice) even when empty.
  static const Value kEmptyMarker = 0;
  view.borrowed_ = values != nullptr ? values : &kEmptyMarker;
  return view;
}

void Dataset::Append(SeriesView series) {
  HYDRA_CHECK_MSG(!is_slice(), "Append on a slice (slices are read-only)");
  HYDRA_CHECK_MSG(series.size() == length_, "Append: series length mismatch");
  values_.insert(values_.end(), series.begin(), series.end());
  ++count_;
}

void Dataset::Reserve(size_t n) {
  HYDRA_CHECK_MSG(!is_slice(), "Reserve on a slice (slices are read-only)");
  values_.reserve(n * length_);
}

Dataset Dataset::Slice(size_t begin, size_t count) const {
  HYDRA_CHECK_MSG(count > 0, "Slice needs at least one series");
  HYDRA_CHECK_MSG(begin <= count_ && count <= count_ - begin,
                  "Slice range exceeds the dataset");
  Dataset slice;
  slice.name_ = name_ + "[" + std::to_string(begin) + "," +
                std::to_string(begin + count) + ")";
  slice.length_ = length_;
  slice.count_ = count;
  slice.borrowed_ = data() + begin * length_;
  // File-backed datasets hand their run reader down to every slice (shard
  // views stay zero-copy and pread-served); the base shifts so the slice's
  // local ids address the right file series.
  slice.raw_source_ = raw_source_;
  slice.raw_base_ = raw_base_ + begin;
  return slice;
}

Value* Dataset::AppendUninitialized() {
  HYDRA_CHECK_MSG(!is_slice(),
                  "AppendUninitialized on a slice (slices are read-only)");
  values_.resize(values_.size() + length_);
  ++count_;
  return values_.data() + (count_ - 1) * length_;
}

void Dataset::ZNormalizeAll() {
  HYDRA_CHECK_MSG(!is_slice(),
                  "ZNormalizeAll on a slice (normalize the parent dataset)");
  for (size_t i = 0; i < count_; ++i) {
    ZNormalize(std::span<Value>(values_.data() + i * length_, length_));
  }
}

void ZNormalize(std::span<Value> series) {
  const size_t n = series.size();
  if (n == 0) return;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (Value v : series) {
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sum_sq / static_cast<double>(n) - mean * mean;
  constexpr double kMinVariance = 1e-12;
  if (var < kMinVariance) {
    for (Value& v : series) v = 0.0f;
    return;
  }
  const double inv_std = 1.0 / std::sqrt(var);
  for (Value& v : series) {
    v = static_cast<Value>((v - mean) * inv_std);
  }
}

}  // namespace hydra::core
