// Runtime-dispatched kernels for the distance and lower-bound hot loops.
//
// Five kernel families (the raw distances euclidean_sq and
// euclidean_sq_lines; the summary bounds box_dist_sq, sfa_lb_sq and
// eapca_node_lb_sq), each in up to five implementations ("kernel sets"):
//   scalar   — the permanent reference, verbatim the pre-SIMD loops.
//   portable — 4-wide stripe-unrolled plain C++ (any CPU, any ISA).
//   avx2     — 256-bit AVX2+FMA (8 floats / 4 doubles per step, gathers
//              in the summary kernels).
//   avx512   — 512-bit AVX-512 F+DQ raw-series kernels (summary kernels
//              reuse the AVX2 table forms, which are already memory-bound).
//   neon     — AArch64 Advanced SIMD raw-series kernels (8 floats per step
//              over four 2-lane double accumulators); summary kernels
//              alias scalar (NEON has no gather), the line kernel aliases
//              the portable form.
//
// Dispatch is resolved once per process from cpuid (best supported set
// wins), overridable via the HYDRA_KERNELS environment variable or
// UseKernels() (the CLI's --kernels flag). The scalar set is always
// available and always the conformance baseline.
//
// Numerical contract (pinned by tests/unit/kernel_conformance_test.cc):
//  - Summary lower-bound kernels (box_dist_sq, sfa_lb_sq,
//    eapca_node_lb_sq) preserve the scalar reduction order and are
//    bit-identical to the reference in every set. Pruning decisions
//    therefore never depend on the dispatch level. (VA+file and iSAX need
//    no kernel: their bounds are per-query tables, see
//    VaPlusQuantizer::QueryBounds and transform::IsaxQueryTable, pinned to
//    scalar references outside the dispatch.)
//  - Raw-series kernels (euclidean_sq, euclidean_sq_lines) may use
//    multiple accumulators; sets with raw_order_preserved == false agree
//    with the reference to relative error <= 16 * n * 2^-53 (all terms
//    are nonnegative, so the sum is perfectly conditioned and lane
//    reassociation is the only error source).
//  - Within any one set, a non-abandoned euclidean_sq_lines return
//    (<= bound) equals the same set's euclidean_sq_lines(..., +inf), bit
//    for bit.
#ifndef HYDRA_CORE_SIMD_KERNELS_H_
#define HYDRA_CORE_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace hydra::core::simd {

/// Values per block of euclidean_sq_lines: one 64-byte cache line of
/// floats.
inline constexpr size_t kLineValues = 16;

/// One dispatchable implementation of every hot kernel. All pointers are
/// always non-null; sets that have no specialized form for a kernel alias
/// a lower level's function.
struct KernelSet {
  /// Stable identifier ("scalar", "portable", "avx2", "avx512", "neon")
  /// accepted
  /// by --kernels / HYDRA_KERNELS.
  const char* name;

  /// True when the raw-series kernels reduce in scalar order, making them
  /// bit-identical to the reference (summary kernels always are).
  bool raw_order_preserved;

  /// Plain squared Euclidean distance over `n` float values.
  double (*euclidean_sq)(const Value* a, const Value* b, size_t n);

  /// Line-ranked early abandon (reordered early abandoning by blocks).
  /// The `n` values split into ceil(n / kLineValues) blocks; block b is
  /// [b * kLineValues, min((b + 1) * kLineValues, n)), so only the last
  /// may be partial. Rank r = 0, 1, ... compares block lines[r] of
  /// `candidate`, loaded contiguously, with q_ranked[r * kLineValues, ...),
  /// which holds the same block of the query, zero-padded to kLineValues
  /// (QueryOrder ranks the blocks by decreasing query energy). The bound is
  /// checked after every block: once the partial sum exceeds it, that sum
  /// (> `bound`, NOT the distance) is returned.
  double (*euclidean_sq_lines)(const Value* q_ranked, const Value* candidate,
                               const uint32_t* lines, size_t n,
                               double bound);

  /// Squared distance from point `q` to the box [lo, hi] per dimension:
  /// sum_i max(lo[i]-q[i], q[i]-hi[i], 0)^2. Accepts +/-inf box edges.
  /// Order-preserving in every set. Backs the SFA-trie and R*-tree MBR
  /// bounds.
  double (*box_dist_sq)(const double* q, const double* lo, const double* hi,
                        size_t n);

  /// SFA lower-bound core: per dimension d, distance from q_dft[d] to the
  /// bin [edges[d*stride + word[d]], edges[d*stride + word[d] + 1]] of a
  /// padded row layout (row = [-inf, bins..., +inf], stride = alphabet+1;
  /// see SfaQuantizer::flat_edges_). Order-preserving in every set.
  double (*sfa_lb_sq)(const double* q_dft, const uint8_t* word, size_t dims,
                      const double* edges, size_t stride);

  /// EAPCA node lower bound: per segment s of the cumulative-`ends`
  /// segmentation, len_s * (dist(q_mean, mean range)^2 +
  /// dist(q_std, std range)^2). `q_stats` is {mean, stddev} pairs
  /// (stride 2), `env` is {min_mean, max_mean, min_std, max_std} quads
  /// (stride 4). Order-preserving in every set.
  double (*eapca_node_lb_sq)(const double* q_stats, const double* env,
                             const uint32_t* ends, size_t segments);
};

/// The reference set (always supported, never changes behavior).
const KernelSet& ScalarKernels();

/// Every set compiled into this binary, in preference order
/// (scalar, portable, then ISA-specific sets). All entries are non-null;
/// ISA sets are absent on targets where they cannot be compiled.
const std::vector<const KernelSet*>& AllKernelSets();

/// The compiled sets this CPU can actually execute, in preference order
/// (the last entry is the default dispatch choice).
std::vector<const KernelSet*> SupportedKernelSets();

/// Looks up a compiled set by name; nullptr when unknown.
const KernelSet* FindKernelSet(std::string_view name);

/// True when the current CPU can execute `set`.
bool KernelSetSupported(const KernelSet& set);

/// The active set. First use resolves it: HYDRA_KERNELS (aborts with a
/// clear message when unknown/unsupported — the CLI pre-validates to turn
/// that into a clean exit), else the best supported set.
const KernelSet& ActiveKernels();

/// Forces the active set by name (the --kernels flag). Errors when the
/// name is unknown or the CPU cannot execute it; the active set is then
/// unchanged.
util::Status UseKernels(std::string_view name);

}  // namespace hydra::core::simd

#endif  // HYDRA_CORE_SIMD_KERNELS_H_
