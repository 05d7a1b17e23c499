// Astronomy scenario (the paper's Astro dataset): a catalog of periodic
// light curves; find stars with light curves similar to a target — the
// core operation in variable-star classification. Uses the VA+file, the
// study's surprise top performer, and shows the effect of its k-means
// cells on this strongly periodic data.
#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "bench/registry.h"
#include "gen/realistic.h"
#include "gen/workload.h"
#include "io/disk_model.h"

int main() {
  using namespace hydra;

  const size_t catalog_size = 40000;
  const size_t samples = 256;
  const core::Dataset catalog =
      gen::MakeDataset("astro", catalog_size, samples, 21);
  std::printf("light-curve catalog: %zu curves of %zu samples\n",
              catalog_size, samples);

  auto va = bench::CreateMethod("VA+file");
  const core::BuildStats build = va->Build(catalog);
  std::printf("VA+file approximation built in %.2fs CPU\n",
              build.cpu_seconds);

  // A target curve observed tonight: one of the catalog stars, re-observed
  // with fresh noise.
  const gen::Workload tonight = gen::CtrlWorkload(catalog, 5, 22, 0.3, 0.6);
  const auto ssd = io::DiskModel::Ssd();
  for (size_t q = 0; q < tonight.queries.size(); ++q) {
    const core::QueryResult result =
        va->Execute(tonight.queries[q], core::QuerySpec::Knn(5));
    std::printf(
        "\ntarget %zu (noise sd %.2f): %lld of %zu curves refined "
        "(prune %.4f), modeled SSD time %.4fs\n",
        q, tonight.noise_levels[q],
        static_cast<long long>(result.stats.raw_series_examined),
        catalog.size(),
        1.0 - static_cast<double>(result.stats.raw_series_examined) /
                  static_cast<double>(catalog.size()),
        ssd.QueryTotalSeconds(result.stats));
    for (const auto& n : result.neighbors) {
      std::printf("    star %7u  dist %.4f\n", n.id, std::sqrt(n.dist_sq));
    }
  }
  std::printf(
      "\nTakeaway (paper Figures 7, 9): on SSD-class storage the VA+file's "
      "tight per-series bounds and skip-sequential access make it one of "
      "the best exact methods.\n");
  return 0;
}
