#include "transform/isax.h"

#include <algorithm>
#include <cstdio>

#include "transform/paa.h"
#include "util/check.h"

namespace hydra::transform {
namespace {

// The full-resolution symbol of `v` over the 255 ascending breakpoints at
// `table`: the count of breakpoints <= v (std::upper_bound's answer, NaN
// included), each step halving the candidate range with a select.
uint8_t SymbolIn(const double* table, double v) {
  size_t pos = 0;
  for (size_t step = IsaxQueryTable::kSymbols / 2; step > 0; step /= 2) {
    pos += v < table[pos + step - 1] ? 0 : step;
  }
  return static_cast<uint8_t>(pos);
}

// The squared distance from `q` to the interval [lo, hi]: every iSAX
// MINDIST term, with the reference's branches (NaN-safe: a NaN query value
// is inside every interval).
double IntervalTermSq(double q, double lo, double hi) {
  double d = 0.0;
  if (q < lo) {
    d = lo - q;
  } else if (q > hi) {
    d = q - hi;
  }
  return d * d;
}

}  // namespace

std::string IsaxWord::DebugString() const {
  std::string out;
  char buf[16];
  for (size_t s = 0; s < symbols.size(); ++s) {
    std::snprintf(buf, sizeof(buf), "%s%d@%d", s == 0 ? "" : " ", symbols[s],
                  bits[s]);
    out += buf;
  }
  return out;
}

IsaxWord FullResolutionWord(std::span<const double> paa) {
  IsaxWord w;
  w.symbols.resize(paa.size());
  w.bits.assign(paa.size(), static_cast<uint8_t>(kMaxSaxBits));
  for (size_t s = 0; s < paa.size(); ++s) {
    w.symbols[s] = FullResolutionSymbol(paa[s]);
  }
  return w;
}

uint8_t FullResolutionSymbol(double paa_value) {
  return SymbolIn(SaxBreakpoints::Get().For(kMaxSaxBits).data(), paa_value);
}

void EncodeFullWord(core::SeriesView x, size_t segments, uint8_t* out) {
  HYDRA_CHECK_MSG(segments > 0 && x.size() % segments == 0,
                  "PAA requires length divisible by segment count");
  const double* table = SaxBreakpoints::Get().For(kMaxSaxBits).data();
  const size_t seg_len = x.size() / segments;
  // Paa sums each segment on its own, so a chunk of segments through a
  // stack buffer yields exactly the whole-series PAA values.
  constexpr size_t kChunk = 16;
  double paa[kChunk];
  for (size_t first = 0; first < segments; first += kChunk) {
    const size_t n = std::min(kChunk, segments - first);
    Paa(x.subspan(first * seg_len, n * seg_len), n, paa);
    for (size_t s = 0; s < n; ++s) out[first + s] = SymbolIn(table, paa[s]);
  }
}

uint8_t ReduceSymbol(uint8_t full_symbol, int to_bits) {
  HYDRA_DCHECK(to_bits >= 0 && to_bits <= kMaxSaxBits);
  return static_cast<uint8_t>(full_symbol >> (kMaxSaxBits - to_bits));
}

bool WordCovers(const IsaxWord& node, const IsaxWord& full) {
  HYDRA_DCHECK(node.segments() == full.segments());
  for (size_t s = 0; s < node.segments(); ++s) {
    HYDRA_DCHECK(full.bits[s] == kMaxSaxBits);
    if (ReduceSymbol(full.symbols[s], node.bits[s]) != node.symbols[s]) {
      return false;
    }
  }
  return true;
}

double IsaxMinDistSq(std::span<const double> paa_q, const IsaxWord& w,
                     size_t points_per_segment) {
  HYDRA_DCHECK(paa_q.size() == w.segments());
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  double acc = 0.0;
  for (size_t s = 0; s < w.segments(); ++s) {
    if (w.bits[s] == 0) continue;  // whole-domain segment contributes 0
    const size_t idx = (size_t{1} << w.bits[s]) - 1 + w.symbols[s];
    acc += IntervalTermSq(paa_q[s], bp.FlatLower()[idx], bp.FlatUpper()[idx]);
  }
  return acc * static_cast<double>(points_per_segment);
}

void OneBitTermsSq(std::span<const double> paa_q, double* out) {
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  // 1-bit symbols occupy flat entries 1 and 2.
  const double* lower = bp.FlatLower() + 1;
  const double* upper = bp.FlatUpper() + 1;
  for (size_t s = 0; s < paa_q.size(); ++s) {
    out[2 * s] = IntervalTermSq(paa_q[s], lower[0], upper[0]);
    out[2 * s + 1] = IntervalTermSq(paa_q[s], lower[1], upper[1]);
  }
}

void IsaxQueryTable::Reset(std::span<const double> paa_q,
                           size_t points_per_segment) {
  const SaxBreakpoints& bp = SaxBreakpoints::Get();
  // Full-resolution symbols occupy flat entries 2^kMaxSaxBits - 1 + s.
  const double* lower = bp.FlatLower() + (kSymbols - 1);
  const double* upper = bp.FlatUpper() + (kSymbols - 1);
  segments_ = paa_q.size();
  points_per_segment_ = static_cast<double>(points_per_segment);
  terms_.resize(segments_ * kRow);
  for (size_t s = 0; s < segments_; ++s) {
    const double q = paa_q[s];
    double* row = terms_.data() + s * kRow;
    double* full = row + (kSymbols - 1);
    for (size_t sym = 0; sym < kSymbols; ++sym) {
      full[sym] = IntervalTermSq(q, lower[sym], upper[sym]);
    }
    // Coarser levels, finest first: symbol `sym` at `bits` covers symbols
    // 2*sym and 2*sym+1 at bits + 1, down to the whole domain (entry 0).
    for (size_t width = kSymbols / 2; width > 0; width /= 2) {
      const double* finer = row + (2 * width - 1);
      double* coarse = row + (width - 1);
      for (size_t sym = 0; sym < width; ++sym) {
        coarse[sym] = std::min(finer[2 * sym], finer[2 * sym + 1]);
      }
    }
  }
}

void IsaxQueryTable::LowerBoundsSq(const uint8_t* words,
                                   std::span<const core::SeriesId> ids,
                                   double* out) const {
  const auto word = [&](size_t i) {
    return words + static_cast<size_t>(ids[i]) * segments_;
  };
  const double* full = terms_.data() + (kSymbols - 1);
  size_t i = 0;
  for (; i + 4 <= ids.size(); i += 4) {
    const uint8_t* w0 = word(i);
    const uint8_t* w1 = word(i + 1);
    const uint8_t* w2 = word(i + 2);
    const uint8_t* w3 = word(i + 3);
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    const double* row = full;
    for (size_t s = 0; s < segments_; ++s, row += kRow) {
      a0 += row[w0[s]];
      a1 += row[w1[s]];
      a2 += row[w2[s]];
      a3 += row[w3[s]];
    }
    out[i] = a0 * points_per_segment_;
    out[i + 1] = a1 * points_per_segment_;
    out[i + 2] = a2 * points_per_segment_;
    out[i + 3] = a3 * points_per_segment_;
  }
  for (; i < ids.size(); ++i) out[i] = LowerBoundSq(word(i));
}

IsaxQueryTable& ScratchIsaxQueryTable() {
  thread_local IsaxQueryTable table;
  return table;
}

}  // namespace hydra::transform
