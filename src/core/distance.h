// Euclidean distance kernels with the paper's shared optimizations:
// (a) no square root, (b) early abandoning, (c) reordered early abandoning
// (here by whole cache lines, see QueryOrder).
// Both entry points dispatch to the process-wide core::simd kernel set (see
// core/simd/kernels.h for dispatch and the numerical contract).
#ifndef HYDRA_CORE_DISTANCE_H_
#define HYDRA_CORE_DISTANCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"

namespace hydra::core {

/// Plain *squared* Euclidean distance (no square root is ever taken on a
/// hot path; compare against squared bounds).
double SquaredEuclidean(SeriesView a, SeriesView b);

/// Per-query line ranking for reordered early abandoning. The series is
/// split into blocks of simd::kLineValues (16) values, one 64-byte cache
/// line on a line-aligned buffer; the last block may be partial. Blocks
/// are ranked by decreasing query energy sum q_i^2 (ties by block index),
/// so large contributions (and abandons) come first on z-normalized data,
/// while each block is still loaded contiguously.
///
/// A QueryOrder is reusable: Reset re-ranks it for a new query while
/// keeping its buffers, so repeated queries on one thread are
/// allocation-free once warm (see ScratchQueryOrder).
class QueryOrder {
 public:
  /// An empty order; Reset must be called before Distance.
  QueryOrder() = default;

  explicit QueryOrder(SeriesView query) { Reset(query); }

  /// Re-targets the order at `query`, reusing the existing buffers.
  void Reset(SeriesView query);

  /// *Squared* distance of the current query (the one given at
  /// construction or the last Reset) to `candidate`, visiting blocks in
  /// rank order and checking the squared `bound` after each (abandoned
  /// results are only comparable against `bound`).
  double Distance(SeriesView candidate, double bound) const;

  /// Block indices in visit order (decreasing energy, ties by index).
  std::span<const uint32_t> lines() const { return lines_; }

  /// The query's blocks in visit order, simd::kLineValues values each,
  /// zero-padded past the series' end: the kernel's q_ranked.
  std::span<const Value> ranked_query() const { return ranked_query_; }

 private:
  size_t length_ = 0;
  std::vector<double> energy_;        // sum of q_i^2 per block
  std::vector<uint32_t> lines_;       // block visit order
  std::vector<Value> ranked_query_;   // blocks in visit order, padded
};

/// Thread-local reusable QueryOrder, Reset to `query`. Like ScratchKnnHeap:
/// at most one scratch order is live per thread — a second call re-targets
/// (and thus invalidates) the first. Every method uses at most one
/// QueryOrder per query, so query hot paths can share this scratch safely
/// even under concurrent batch execution.
QueryOrder& ScratchQueryOrder(SeriesView query);

}  // namespace hydra::core

#endif  // HYDRA_CORE_DISTANCE_H_
