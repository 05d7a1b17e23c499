// Symbolic Fourier Approximation: per-dimension discretization of DFT
// coefficients via Multiple Coefficient Binning (MCB), with equi-depth or
// equi-width bins (the paper tunes both; equi-depth wins).
#ifndef HYDRA_TRANSFORM_SFA_H_
#define HYDRA_TRANSFORM_SFA_H_

#include <cstdint>
#include <span>
#include <vector>

namespace hydra::transform {

/// Trained MCB quantizer: each DFT dimension has its own breakpoints.
class SfaQuantizer {
 public:
  enum class Binning { kEquiDepth, kEquiWidth };

  /// Trains breakpoints from sample DFT vectors (one inner vector per
  /// series, all of the same dimensionality). `alphabet` in [2, 256].
  static SfaQuantizer Train(
      const std::vector<std::vector<double>>& sample_dfts, int alphabet,
      Binning binning);

  /// Rebuilds a trained quantizer from persisted breakpoint tables (the
  /// inverse of BreakpointsFor over all dimensions). `alphabet` must lie
  /// in [2, 256] and every dimension must carry alphabet-1 breakpoints —
  /// CHECK-enforced, so callers deserializing untrusted bytes validate
  /// first.
  static SfaQuantizer FromBreakpoints(std::vector<std::vector<double>> bins,
                                      int alphabet);

  /// SFA word of a DFT vector: one symbol per dimension.
  std::vector<uint8_t> Quantize(std::span<const double> dft) const;

  /// Lower bound on the squared Euclidean distance between the originals:
  /// per-dimension distance from the query coefficient to the word's bin.
  /// Valid because the packed DFT is orthonormal and truncated.
  double LowerBoundSq(std::span<const double> q_dft,
                      std::span<const uint8_t> word) const;

  size_t dims() const { return bins_.size(); }
  int alphabet() const { return alphabet_; }

  /// Breakpoints of dimension `d` (alphabet-1 ascending values).
  std::span<const double> BreakpointsFor(size_t d) const { return bins_[d]; }

  /// Row stride of flat_edges_: alphabet + 1 doubles per dimension.
  size_t FlatStride() const { return static_cast<size_t>(alphabet_) + 1; }

  /// Resident size of the breakpoint tables in bytes.
  size_t MemoryBytes() const;

 private:
  /// Rebuilds flat_edges_ from bins_; every constructor path ends here.
  void BuildEdgeTable();

  std::vector<std::vector<double>> bins_;
  // Flat padded bin-edge table for the sfa_lb_sq kernel: dimension d
  // occupies the FlatStride() doubles starting at d * FlatStride(), laid
  // out as [-inf, breakpoints..., +inf], so symbol w spans
  // [row[w], row[w + 1]].
  std::vector<double> flat_edges_;
  int alphabet_ = 0;
};

}  // namespace hydra::transform

#endif  // HYDRA_TRANSFORM_SFA_H_
