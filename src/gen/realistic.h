// Simulators for the paper's four real datasets. We do not have the
// proprietary/large originals (IRIS Seismic, Astro light curves, SALD MRI,
// Deep1B embeddings); these generators produce series with the same coarse
// spectral character, which is what differentiates method behaviour:
// how much energy the first coefficients/segments capture (summarizability)
// and how close queries are to their nearest neighbors (difficulty).
// The substitution is documented in DESIGN.md.
#ifndef HYDRA_GEN_REALISTIC_H_
#define HYDRA_GEN_REALISTIC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"

namespace hydra::gen {

/// Dispatch by name: "synth", "seismic", "astro", "sald", "deep".
/// The family must satisfy IsKnownFamily.
///  - seismic: background noise plus a few damped oscillatory bursts
///    (transient events), like instrument recordings around quakes.
///  - astro: periodic light curves (a few harmonics with random
///    period/phase) plus observation noise.
///  - sald (MRI): smooth, strongly autocorrelated signals, an AR(1)
///    process with slow drift. Highly summarizable.
///  - deep (Deep1B): low-rank correlated embeddings (random linear maps of
///    a lower-dimensional latent) plus isotropic noise, hard to summarize
///    with few coefficients, like CNN descriptors.
core::Dataset MakeDataset(const std::string& family, size_t count,
                          size_t length, uint64_t seed);

/// The dataset families MakeDataset dispatches on.
const std::vector<std::string>& KnownFamilies();

/// Whether `family` is a valid MakeDataset name.
bool IsKnownFamily(const std::string& family);

}  // namespace hydra::gen

#endif  // HYDRA_GEN_REALISTIC_H_
