// Indexable SAX: per-segment symbols with independent cardinalities, the
// representation behind iSAX2+ and ADS+.
#ifndef HYDRA_TRANSFORM_ISAX_H_
#define HYDRA_TRANSFORM_ISAX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "transform/sax.h"

namespace hydra::transform {

/// An iSAX word: one symbol per segment, each at its own resolution
/// (0..kMaxSaxBits bits; 0 bits covers the whole value domain, as in an
/// index root). A node word with fewer bits covers all full-resolution
/// words sharing the same bit prefixes.
struct IsaxWord {
  std::vector<uint8_t> symbols;
  std::vector<uint8_t> bits;

  size_t segments() const { return symbols.size(); }

  /// Parsable debug form, e.g. "3@2 0@1 7@3".
  std::string DebugString() const;

  friend bool operator==(const IsaxWord& a, const IsaxWord& b) {
    return a.symbols == b.symbols && a.bits == b.bits;
  }
};

/// Full-resolution (kMaxSaxBits per segment) word for a PAA vector.
IsaxWord FullResolutionWord(std::span<const double> paa);

/// SaxSymbol(paa_value, kMaxSaxBits) by a branch-free binary search over
/// the 255 full-resolution breakpoints (same tie rule: a value on a
/// breakpoint takes the upper symbol).
uint8_t FullResolutionSymbol(double paa_value);

/// Writes the `segments` full-resolution symbols of `x` to `out` without
/// allocating: Paa's values (through a stack buffer) mapped through
/// FullResolutionSymbol, so the output equals Paa + SaxSymbol exactly.
/// `x.size()` must be a multiple of `segments`. The one word encoder of
/// the iSAX2+, ADS+ and DSTree builds.
void EncodeFullWord(core::SeriesView x, size_t segments, uint8_t* out);

/// Drops a full-resolution symbol to `to_bits` resolution (keeps the top
/// bits; valid because Gaussian equi-depth breakpoints are nested).
/// `to_bits` == 0 yields 0 (the whole-domain symbol).
uint8_t ReduceSymbol(uint8_t full_symbol, int to_bits);

/// True if `node` covers `full`: every segment of `full` reduced to the
/// node's resolution equals the node's symbol.
bool WordCovers(const IsaxWord& node, const IsaxWord& full);

/// MINDIST^2: lower bound on the squared Euclidean distance between the
/// original of `paa_q` (query PAA, `points_per_segment` points each) and any
/// series whose iSAX word is covered by `w`. The plain scalar reference
/// every iSAX bound is pinned to: per segment, the squared distance from
/// the query value to the symbol's breakpoint interval (segments with 0
/// bits contribute nothing), summed in segment order, then scaled.
double IsaxMinDistSq(std::span<const double> paa_q, const IsaxWord& w,
                     size_t points_per_segment);

/// The IsaxMinDistSq terms of the two 1-bit symbols of every segment
/// (unscaled): out[2 * s + bit] for segment s of `paa_q`. A first-level
/// word's bound is the sum of its segments' terms in segment order, times
/// the points per segment.
void OneBitTermsSq(std::span<const double> paa_q, double* out);

/// Per-query MINDIST table over every cardinality. Reset evaluates, for one
/// query PAA, the squared distance term of every full-resolution
/// (segment, symbol) pair once, with the scalar reference's branches, and
/// fills each coarser row by the pairwise min of the next finer one — exact,
/// because the breakpoints are nested (a coarse interval is the union of
/// its two finer halves, which share an edge), so every row equals the
/// reference's term. A word's bound is then one table load per segment,
/// summed in segment order and scaled by the points per segment — the same
/// terms in the same order as IsaxMinDistSq, so every bound is
/// bit-identical to it. Reset reuses the buffer, so a long-lived table is
/// allocation-free once warm.
class IsaxQueryTable {
 public:
  static constexpr size_t kSymbols = size_t{1} << kMaxSaxBits;
  /// One segment's row: entry (1 << bits) - 1 + symbol, the layout of
  /// SaxBreakpoints::FlatLower (entry 0 is the whole-domain symbol).
  static constexpr size_t kRow = 2 * kSymbols;

  void Reset(std::span<const double> paa_q, size_t points_per_segment);

  /// Equals IsaxMinDistSq(paa_q, full-resolution word, points_per_segment)
  /// of the last Reset, for the `segments()` symbols at `word`.
  double LowerBoundSq(const uint8_t* word) const {
    const double* full = terms_.data() + (kSymbols - 1);
    double acc = 0.0;
    for (size_t s = 0; s < segments_; ++s) {
      acc += full[s * kRow + word[s]];
    }
    return acc * points_per_segment_;
  }

  /// Writes LowerBoundSq(words + ids[i] * segments()) to out[i] for every
  /// i, four words side by side: four independent accumulators, each
  /// summed in segment order and then scaled, so every bound is bit for
  /// bit the single-word one (a tail of fewer than four takes that form).
  /// The four chains of table loads overlap instead of running one after
  /// another.
  void LowerBoundsSq(const uint8_t* words, std::span<const core::SeriesId> ids,
                     double* out) const;

  /// Equals IsaxMinDistSq(paa_q, w, points_per_segment) of the last Reset
  /// for a node word of any per-segment cardinality.
  double NodeBoundSq(const IsaxWord& w) const {
    const double* row = terms_.data();
    double acc = 0.0;
    for (size_t s = 0; s < segments_; ++s, row += kRow) {
      if (w.bits[s] == 0) continue;  // whole-domain segment contributes 0
      acc += row[(size_t{1} << w.bits[s]) - 1 + w.symbols[s]];
    }
    return acc * points_per_segment_;
  }

  size_t segments() const { return segments_; }

 private:
  std::vector<double> terms_;  // segments x kRow squared terms
  size_t segments_ = 0;
  double points_per_segment_ = 0.0;
};

/// Thread-local reusable IsaxQueryTable (like core::ScratchKnnHeap): at
/// most one use is live per thread, re-armed by Reset once per query.
/// Other threads may read it while the owning thread's query is running.
IsaxQueryTable& ScratchIsaxQueryTable();

}  // namespace hydra::transform

#endif  // HYDRA_TRANSFORM_ISAX_H_
