#include "transform/vaplus.h"

#include <algorithm>
#include <cmath>

#include "transform/kmeans1d.h"
#include "util/check.h"
#include "util/stats.h"

namespace hydra::transform {
namespace {

constexpr int kMaxBitsPerDim = VaPlusQuantizer::kMaxBitsPerDim;

std::vector<double> Column(const std::vector<std::vector<double>>& rows,
                           size_t d) {
  std::vector<double> col(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) col[i] = rows[i][d];
  return col;
}

}  // namespace

VaPlusQuantizer VaPlusQuantizer::Train(
    const std::vector<std::vector<double>>& dfts, int total_bits,
    Allocation allocation, CellPlacement placement) {
  HYDRA_CHECK(!dfts.empty());
  HYDRA_CHECK(total_bits >= 1);
  const size_t dims = dfts.front().size();

  // Bit allocation. Non-uniform: greedy rate-distortion — each extra bit
  // halves a dimension's cell width, so give the next bit to the dimension
  // with the largest remaining variance * 4^{-bits}.
  std::vector<int> bits(dims, 0);
  if (allocation == Allocation::kUniform) {
    const int per_dim = std::max(1, total_bits / static_cast<int>(dims));
    for (size_t d = 0; d < dims; ++d) {
      bits[d] = std::min(per_dim, kMaxBitsPerDim);
    }
  } else {
    std::vector<double> variance(dims);
    for (size_t d = 0; d < dims; ++d) {
      const auto col = Column(dfts, d);
      const double sd = util::Stddev(col);
      variance[d] = sd * sd;
    }
    for (int b = 0; b < total_bits; ++b) {
      size_t best = 0;
      double best_gain = -1.0;
      for (size_t d = 0; d < dims; ++d) {
        if (bits[d] >= kMaxBitsPerDim) continue;
        const double gain = variance[d] * std::pow(0.25, bits[d]);
        if (gain > best_gain) {
          best_gain = gain;
          best = d;
        }
      }
      if (best_gain <= 0.0) break;  // all dimensions degenerate or saturated
      ++bits[best];
    }
  }

  VaPlusQuantizer q;
  q.bits_ = bits;
  q.total_bits_ = total_bits;
  q.edges_.resize(dims);
  for (size_t d = 0; d < dims; ++d) {
    auto col = Column(dfts, d);
    const auto [mn_it, mx_it] = std::minmax_element(col.begin(), col.end());
    const double lo = *mn_it;
    const double hi = *mx_it;
    std::vector<double>& edges = q.edges_[d];
    const int cells = 1 << bits[d];
    edges.resize(cells + 1);
    edges.front() = lo;
    edges.back() = hi;
    if (cells > 1) {
      if (placement == CellPlacement::kKmeans) {
        const Kmeans1dResult km = Kmeans1d(col, cells);
        for (int c = 0; c + 1 < cells; ++c) edges[c + 1] = km.boundaries[c];
      } else {
        std::sort(col.begin(), col.end());
        for (int c = 1; c < cells; ++c) {
          edges[c] = col[std::min(col.size() - 1,
                                  c * col.size() / static_cast<size_t>(cells))];
        }
      }
      // Guarantee monotone edges even on degenerate data.
      for (int c = 1; c <= cells; ++c) {
        edges[c] = std::max(edges[c], edges[c - 1]);
      }
    }
  }
  q.BuildEdgeOffsets();
  return q;
}

VaPlusQuantizer VaPlusQuantizer::FromTables(
    std::vector<std::vector<double>> edges, std::vector<int> bits,
    int total_bits) {
  HYDRA_CHECK(edges.size() == bits.size());
  HYDRA_CHECK(total_bits >= 1);
  for (size_t d = 0; d < edges.size(); ++d) {
    HYDRA_CHECK_MSG(bits[d] >= 0 && bits[d] <= kMaxBitsPerDim,
                    "per-dimension bit count out of range");
    HYDRA_CHECK_MSG(
        edges[d].size() == (size_t{1} << bits[d]) + 1,
        "dimension needs 2^bits + 1 cell edges");
  }
  VaPlusQuantizer q;
  q.edges_ = std::move(edges);
  q.bits_ = std::move(bits);
  q.total_bits_ = total_bits;
  q.BuildEdgeOffsets();
  return q;
}

void VaPlusQuantizer::BuildEdgeOffsets() {
  edge_offsets_.resize(edges_.size());
  size_t total = 0;
  for (size_t d = 0; d < edges_.size(); ++d) {
    edge_offsets_[d] = static_cast<uint32_t>(total);
    total += edges_[d].size();
  }
}

std::vector<uint16_t> VaPlusQuantizer::Quantize(
    std::span<const double> dft) const {
  HYDRA_DCHECK(dft.size() == dims());
  std::vector<uint16_t> cells(dims());
  for (size_t d = 0; d < dims(); ++d) {
    const auto& edges = edges_[d];
    if (edges.size() <= 2) {
      cells[d] = 0;
      continue;
    }
    // Interior edges are edges[1..cells-1]; cell = count of interior edges
    // below the value.
    const auto begin = edges.begin() + 1;
    const auto end = edges.end() - 1;
    cells[d] = static_cast<uint16_t>(std::upper_bound(begin, end, dft[d]) -
                                     begin);
  }
  return cells;
}

namespace {

// The two per-dimension terms, shared by the scalar reference and the
// query tables so both evaluate them identically.
double LowerTerm(double q, double lo, double hi) {
  double dist = 0.0;
  if (q < lo) {
    dist = lo - q;
  } else if (q > hi) {
    dist = q - hi;
  }
  return dist * dist;
}

double UpperTerm(double q, double lo, double hi) {
  const double dist = std::max(std::fabs(q - lo), std::fabs(q - hi));
  return dist * dist;
}

}  // namespace

double VaPlusQuantizer::CellLowerBoundSq(
    std::span<const double> q_dft, std::span<const uint16_t> cells) const {
  HYDRA_DCHECK(q_dft.size() == dims());
  double acc = 0.0;
  for (size_t d = 0; d < dims(); ++d) {
    const auto& edges = edges_[d];
    acc += LowerTerm(q_dft[d], edges[cells[d]], edges[cells[d] + 1]);
  }
  return acc;
}

double VaPlusQuantizer::CellUpperBoundSq(
    std::span<const double> q_dft, std::span<const uint16_t> cells) const {
  HYDRA_DCHECK(q_dft.size() == dims());
  double acc = 0.0;
  for (size_t d = 0; d < dims(); ++d) {
    const auto& edges = edges_[d];
    acc += UpperTerm(q_dft[d], edges[cells[d]], edges[cells[d] + 1]);
  }
  return acc;
}

void VaPlusQuantizer::QueryBounds::Reset(const VaPlusQuantizer& quantizer,
                                         std::span<const double> q_dft) {
  HYDRA_DCHECK(q_dft.size() == quantizer.dims());
  offsets_.assign(quantizer.edge_offsets_.begin(),
                  quantizer.edge_offsets_.end());
  size_t slots = 0;
  for (const auto& edges : quantizer.edges_) slots += edges.size();
  terms_.resize(slots);
  for (size_t d = 0; d < quantizer.dims(); ++d) {
    const std::vector<double>& edges = quantizer.edges_[d];
    Bounds* row = terms_.data() + offsets_[d];
    for (size_t c = 0; c + 1 < edges.size(); ++c) {
      row[c] = {LowerTerm(q_dft[d], edges[c], edges[c + 1]),
                UpperTerm(q_dft[d], edges[c], edges[c + 1])};
    }
  }
}

size_t VaPlusQuantizer::ApproximationBytes() const {
  size_t used = 0;
  for (int b : bits_) {
    if (b > 0) ++used;
  }
  return used * sizeof(uint16_t);
}

size_t VaPlusQuantizer::MemoryBytes() const {
  size_t bytes = bits_.size() * sizeof(int);
  bytes += edge_offsets_.size() * sizeof(uint32_t);
  for (const auto& edges : edges_) bytes += edges.size() * sizeof(double);
  return bytes;
}

}  // namespace hydra::transform
