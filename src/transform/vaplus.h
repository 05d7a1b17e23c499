// VA+ quantization: non-uniform bit allocation across DFT dimensions plus
// per-dimension k-means cells (the improvements of VA+file over VA-file).
#ifndef HYDRA_TRANSFORM_VAPLUS_H_
#define HYDRA_TRANSFORM_VAPLUS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace hydra::transform {

/// Trained VA+ scalar quantizer.
///
/// Build: the total bit budget is distributed greedily across dimensions in
/// proportion to remaining variance (dimensions with high energy get more
/// bits, the paper's "non-uniform" allocation); each dimension's cells are
/// then placed by 1-D k-means (instead of VA-file's equi-depth). Cell edges
/// are finite (data min/max), so upper bounds are finite too.
class VaPlusQuantizer {
 public:
  enum class Allocation { kNonUniform, kUniform };
  enum class CellPlacement { kKmeans, kEquiDepth };

  /// Hard cap on bits per dimension (1024 cells). Part of the trained
  /// quantizer's invariants: FromTables enforces it, so deserializers
  /// must pre-validate persisted bit counts against this same constant.
  static constexpr int kMaxBitsPerDim = 10;

  /// Trains on the DFT vectors of the collection. `total_bits` is the
  /// whole-word budget (e.g. 64 bits over 16 dims).
  static VaPlusQuantizer Train(const std::vector<std::vector<double>>& dfts,
                               int total_bits,
                               Allocation allocation = Allocation::kNonUniform,
                               CellPlacement placement = CellPlacement::kKmeans);

  /// Rebuilds a trained quantizer from persisted tables (the inverse of
  /// EdgesFor/bits_for over all dimensions). Every dimension d must carry
  /// 2^bits[d] + 1 ascending edges — CHECK-enforced, so callers
  /// deserializing untrusted bytes validate first.
  static VaPlusQuantizer FromTables(std::vector<std::vector<double>> edges,
                                    std::vector<int> bits, int total_bits);

  /// Cell index per dimension for one DFT vector (dimensions with 0 bits
  /// have a single implicit cell and are stored as 0).
  std::vector<uint16_t> Quantize(std::span<const double> dft) const;

  /// Lower bound on squared ED between originals given the query DFT and a
  /// candidate's cell word. Valid in the full space because the packed DFT
  /// is orthonormal and the untracked tail only adds distance. The plain
  /// scalar reference; query hot paths use QueryBounds instead.
  double CellLowerBoundSq(std::span<const double> q_dft,
                          std::span<const uint16_t> cells) const;

  /// Upper bound on the squared distance *within the truncated DFT space*.
  /// For a full-space upper bound the caller must add the residual-energy
  /// term (sqrt(Eq_tail) + sqrt(Ec_tail))^2; the VA+file index stores each
  /// series' tail energy in its approximation file for this purpose. The
  /// plain scalar reference, like CellLowerBoundSq.
  double CellUpperBoundSq(std::span<const double> q_dft,
                          std::span<const uint16_t> cells) const;

  /// Per-query cell-bound tables. Reset evaluates, for one query DFT, the
  /// squared lower- and upper-bound terms of every (dimension, cell) pair
  /// once, laid out like the concatenated edge rows: dimension d's row
  /// starts at the total edge count of the dimensions before it, and slot
  /// c holds cell c (the last slot of each row is unused). A candidate's
  /// bounds are then one table load per dimension, summed in dimension
  /// order — the same terms in the same order as CellLowerBoundSq and
  /// CellUpperBoundSq, so the results are bit-identical to them. Reset
  /// reuses the buffers, so a long-lived instance is allocation-free once
  /// warm.
  class QueryBounds {
   public:
    struct Bounds {
      double lb_sq;
      double ub_sq;
    };

    void Reset(const VaPlusQuantizer& quantizer,
               std::span<const double> q_dft);

    /// Equals CellLowerBoundSq(q_dft, cells) of the last Reset.
    double LowerBoundSq(const uint16_t* cells) const {
      double acc = 0.0;
      for (size_t d = 0; d < offsets_.size(); ++d) {
        acc += terms_[offsets_[d] + cells[d]].lb_sq;
      }
      return acc;
    }

    /// Both bounds in one pass; each equals its scalar reference.
    Bounds Both(const uint16_t* cells) const {
      Bounds acc{0.0, 0.0};
      for (size_t d = 0; d < offsets_.size(); ++d) {
        const Bounds& term = terms_[offsets_[d] + cells[d]];
        acc.lb_sq += term.lb_sq;
        acc.ub_sq += term.ub_sq;
      }
      return acc;
    }

   private:
    std::vector<Bounds> terms_;      // one (lb, ub) term per edge slot
    std::vector<uint32_t> offsets_;  // copy of the quantizer's row starts
  };

  size_t dims() const { return bits_.size(); }
  int bits_for(size_t d) const { return bits_[d]; }
  int total_bits() const { return total_bits_; }
  /// Cell edges of dimension `d` (2^bits_for(d) + 1 ascending values).
  std::span<const double> EdgesFor(size_t d) const { return edges_[d]; }
  /// Bytes per stored approximation word (packed, one uint16 per used dim).
  size_t ApproximationBytes() const;
  /// Resident size of the quantizer tables in bytes.
  size_t MemoryBytes() const;

 private:
  /// Rebuilds edge_offsets_ from edges_; every constructor path ends here.
  void BuildEdgeOffsets();

  // edges_[d] has 2^bits_[d] + 1 finite ascending edges; cell c of dimension
  // d spans [edges_[d][c], edges_[d][c+1]].
  std::vector<std::vector<double>> edges_;
  // Start of row d in the concatenation of the edges_ rows (the
  // QueryBounds layout).
  std::vector<uint32_t> edge_offsets_;
  std::vector<int> bits_;
  int total_bits_ = 0;
};

}  // namespace hydra::transform

#endif  // HYDRA_TRANSFORM_VAPLUS_H_
