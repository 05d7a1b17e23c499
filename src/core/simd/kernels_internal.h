// Internal declarations shared by the kernel translation units: concrete
// kernel functions (so sets can alias a lower level's implementation and
// wide sets can fall back to scalar on short inputs) and the per-ISA set
// providers the registry assembles. Not part of the public surface.
#ifndef HYDRA_CORE_SIMD_KERNELS_INTERNAL_H_
#define HYDRA_CORE_SIMD_KERNELS_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "core/simd/kernels.h"
#include "core/types.h"

namespace hydra::core::simd::internal {

// Reference kernels (kernels_scalar.cc) — verbatim the pre-SIMD loops.
double ScalarEuclideanSq(const Value* a, const Value* b, size_t n);
double ScalarEuclideanSqLines(const Value* q_ranked, const Value* candidate,
                              const uint32_t* lines, size_t n, double bound);
double ScalarBoxDistSq(const double* q, const double* lo, const double* hi,
                       size_t n);
double ScalarSfaLbSq(const double* q_dft, const uint8_t* word, size_t dims,
                     const double* edges, size_t stride);
double ScalarEapcaNodeLbSq(const double* q_stats, const double* env,
                           const uint32_t* ends, size_t segments);

// The portable line kernel (kernels_portable.cc), which the NEON set
// aliases.
double PortableEuclideanSqLines(const Value* q_ranked, const Value* candidate,
                                const uint32_t* lines, size_t n,
                                double bound);

// AVX2 summary kernels (kernels_avx2.cc) — also used by the AVX-512 set,
// whose extra width does not pay for these short, gather-bound loops.
// Declared unconditionally; only referenced when the AVX2 set exists.
double Avx2BoxDistSq(const double* q, const double* lo, const double* hi,
                     size_t n);
double Avx2SfaLbSq(const double* q_dft, const uint8_t* word, size_t dims,
                   const double* edges, size_t stride);
double Avx2EapcaNodeLbSq(const double* q_stats, const double* env,
                         const uint32_t* ends, size_t segments);

// Set providers: nullptr when the set could not be compiled for this
// target (non-x86 builds).
const KernelSet& ScalarKernelsImpl();
const KernelSet& PortableKernelsImpl();
const KernelSet* Avx2KernelsImpl();
const KernelSet* Avx512KernelsImpl();
const KernelSet* NeonKernelsImpl();

}  // namespace hydra::core::simd::internal

#endif  // HYDRA_CORE_SIMD_KERNELS_INTERNAL_H_
