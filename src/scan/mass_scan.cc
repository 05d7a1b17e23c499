#include "scan/mass_scan.h"

#include <algorithm>

#include "core/refine.h"
#include "transform/fft.h"
#include "util/check.h"
#include "util/timer.h"

namespace hydra::scan {

core::BuildStats MassScan::DoBuild(const core::Dataset& data) {
  util::WallTimer timer;
  data_ = &data;
  norms_sq_.resize(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    double acc = 0.0;
    for (const core::Value v : data[i]) acc += static_cast<double>(v) * v;
    norms_sq_[i] = acc;
  }
  core::BuildStats stats;
  stats.cpu_seconds = timer.Seconds();
  stats.bytes_read = static_cast<int64_t>(data.bytes());
  stats.random_reads = 1;  // one sequential pass over the raw file
  return stats;
}

auto MassScan::Distances(core::SeriesView query) const {
  HYDRA_CHECK(data_ != nullptr);
  HYDRA_CHECK(query.size() == data_->length());
  const size_t n = query.size();
  const size_t fft_size = transform::NextPowerOfTwo(2 * n);

  // FFT of the reversed, zero-padded query (computed once per query); the
  // dot product Q.C appears at lag n-1 of the circular cross-correlation.
  std::vector<std::complex<double>> query_freq(fft_size,
                                               std::complex<double>(0.0, 0.0));
  double query_norm_sq = 0.0;
  for (size_t j = 0; j < n; ++j) {
    query_freq[j] = std::complex<double>(query[n - 1 - j], 0.0);
    query_norm_sq += static_cast<double>(query[j]) * query[j];
  }
  transform::Fft(&query_freq, /*inverse=*/false);

  return [this, n, query_norm_sq, query_freq = std::move(query_freq)](
             size_t i, double /*bound*/) {
    thread_local std::vector<std::complex<double>> buf;
    buf.assign(query_freq.size(), std::complex<double>(0.0, 0.0));
    const core::SeriesView c = (*data_)[i];
    for (size_t j = 0; j < n; ++j) buf[j] = std::complex<double>(c[j], 0.0);
    transform::Fft(&buf, /*inverse=*/false);
    for (size_t j = 0; j < buf.size(); ++j) buf[j] *= query_freq[j];
    transform::Fft(&buf, /*inverse=*/true);
    const double dot = buf[n - 1].real();
    return std::max(0.0, query_norm_sq + norms_sq_[i] - 2.0 * dot);
  };
}

core::QueryResult MassScan::DoSearchKnn(core::SeriesView query,
                                        const core::KnnPlan& plan) {
  return core::ScanKnn(*data_, plan, Distances(query));
}

core::QueryResult MassScan::DoSearchRange(core::SeriesView query,
                                          const core::RangePlan& plan) {
  return core::ScanRange(*data_, plan, Distances(query));
}

}  // namespace hydra::scan
