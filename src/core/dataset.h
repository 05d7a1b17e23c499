// In-memory data series collection with contiguous storage.
#ifndef HYDRA_CORE_DATASET_H_
#define HYDRA_CORE_DATASET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/types.h"

namespace hydra::io {
class RunReader;
}  // namespace hydra::io

namespace hydra::core {

/// A collection of equal-length data series stored contiguously
/// (series-major), mirroring the raw binary files of the paper's framework.
///
/// The dataset is the ground truth "raw data file": index methods must route
/// all access to it through io::CountedStorage so that sequential reads and
/// random seeks are charged to the I/O ledger.
///
/// A Dataset either owns its values (the normal case: generators and
/// io::ReadSeriesFile produce owning datasets) or borrows a contiguous
/// sub-range of another dataset's buffer (a *slice*, see Slice). Slices are
/// the shard views of the sharded index subsystem: shard i is built over
/// data.Slice(begin_i, count_i) and addresses series by *local* id in
/// [0, count_i); the sharded container maps local ids back to global ones
/// by adding begin_i. Slices are read-only and never copy series values.
///
/// A file-backed dataset (the mmap storage backend) additionally carries
/// the io::RunReader over its file. operator[] and values() always read
/// the backing buffer directly — for a file-backed dataset that buffer is
/// the read-only mmap view, so bulk access (index construction, scans)
/// streams through the kernel page cache — while io::CountedStorage routes
/// the query-time verification reads through the reader so they become
/// real, measured, budget-bounded preads. Slices propagate the reader with
/// their offset, so sharded slices over a file-backed dataset compose
/// zero-copy.
class Dataset {
 public:
  Dataset() = default;
  /// Creates an empty dataset of `length`-point series.
  Dataset(std::string name, size_t length);

  /// Creates a read-only dataset over an externally owned series-major
  /// buffer (the storage layer's mmap view). Like a slice, the result
  /// borrows: `values` must stay valid and unchanged for the dataset's
  /// lifetime, and mutators CHECK-abort. `count` may be 0; `length` must
  /// be positive.
  static Dataset BorrowedView(std::string name, const Value* values,
                              size_t count, size_t length);

  /// Appends one series; `series.size()` must equal `length()`.
  /// CHECK-aborts on a slice (slices are read-only views).
  void Append(SeriesView series);
  /// Pre-allocates storage for `n` series. CHECK-aborts on a slice.
  void Reserve(size_t n);

  /// Number of series in the collection.
  size_t size() const { return count_; }
  /// Number of points per series (the dimensionality).
  size_t length() const { return length_; }
  /// Dataset size in bytes (the size of the simulated raw file; for a
  /// slice, the size of the simulated per-shard partition file).
  size_t bytes() const { return count_ * length_ * sizeof(Value); }
  const std::string& name() const { return name_; }

  /// View of the i-th series.
  SeriesView operator[](size_t i) const {
    return SeriesView(data() + i * length_, length_);
  }

  /// The full value buffer (series-major).
  std::span<const Value> values() const {
    return std::span<const Value>(data(), count_ * length_);
  }

  /// Non-owning view of `count` contiguous series starting at `begin`
  /// (`begin + count` must not exceed size(); `count` must be positive).
  /// The returned dataset is read-only (mutators CHECK-abort) and shares
  /// this dataset's buffer, so this dataset must outlive the slice — the
  /// same lifetime contract SearchMethod already imposes on the dataset it
  /// is built over. Slicing a slice composes (offsets stay relative to the
  /// slice being cut).
  Dataset Slice(size_t begin, size_t count) const;

  /// True when this dataset borrows another's buffer (see Slice).
  bool is_slice() const { return borrowed_ != nullptr; }

  /// Attaches the run reader serving this dataset's verification reads
  /// (called once by the storage layer on the dataset it returns; `source`
  /// must outlive the dataset and every slice cut from it). `base` is the
  /// index of this dataset's first series within the reader's file.
  void AttachRawSource(io::RunReader* source, size_t base = 0) {
    raw_source_ = source;
    raw_base_ = base;
  }
  /// The attached run reader, or nullptr for a fully RAM-resident dataset
  /// (reads stay pointer dereferences).
  io::RunReader* raw_source() const { return raw_source_; }
  /// Index of this dataset's series 0 within raw_source()'s file —
  /// nonzero for slices of a file-backed dataset.
  size_t raw_base() const { return raw_base_; }

  /// Mutable access for generators that fill series in place.
  /// CHECK-aborts on a slice.
  Value* AppendUninitialized();

  /// Z-normalizes every series in place (mean 0, stddev 1). Series with
  /// near-zero variance become all-zero. The paper's datasets are
  /// normalized in advance; generators call this once at the end.
  /// CHECK-aborts on a slice (normalize the parent instead).
  void ZNormalizeAll();

 private:
  const Value* data() const {
    return borrowed_ != nullptr ? borrowed_ : values_.data();
  }

  std::string name_;
  size_t length_ = 0;
  size_t count_ = 0;
  std::vector<Value> values_;
  /// Borrowed series-major buffer of a slice; nullptr for owning datasets.
  const Value* borrowed_ = nullptr;
  /// Out-of-core verification-read source (see AttachRawSource); nullptr
  /// for RAM-resident datasets.
  io::RunReader* raw_source_ = nullptr;
  size_t raw_base_ = 0;
};

/// Z-normalizes `series` in place. Near-constant input becomes all zeros.
void ZNormalize(std::span<Value> series);

}  // namespace hydra::core

#endif  // HYDRA_CORE_DATASET_H_
