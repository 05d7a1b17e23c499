#include "scan/mass_scan.h"

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

template <typename Offer>
core::SearchStats MassScan::ScanAll(core::SeriesView query,
                                    const core::KnnPlan& plan,
                                    Offer&& offer) {
  HYDRA_CHECK(data_ != nullptr);
  HYDRA_CHECK(query.size() == data_->length());
  util::WallTimer timer;
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

  core::SearchStats stats;
  io::ChargeScanStart(&stats);
  std::vector<std::complex<double>> buf(fft_size);
  for (size_t i = 0; i < data_->size(); ++i) {
    if (plan.RawCapReached(&stats)) break;
    ++stats.raw_series_examined;
    const core::SeriesView c = (*data_)[i];
    std::fill(buf.begin(), buf.end(), std::complex<double>(0.0, 0.0));
    for (size_t j = 0; j < n; ++j) buf[j] = std::complex<double>(c[j], 0.0);
    transform::Fft(&buf, /*inverse=*/false);
    for (size_t j = 0; j < fft_size; ++j) buf[j] *= query_freq[j];
    transform::Fft(&buf, /*inverse=*/true);
    const double dot = buf[n - 1].real();
    const double dist_sq = query_norm_sq + norms_sq_[i] - 2.0 * dot;
    ++stats.distance_computations;
    offer(static_cast<core::SeriesId>(i), std::max(0.0, dist_sq));
  }
  // Only the series actually scanned are charged (a budgeted scan is a
  // prefix scan).
  io::ChargeSequentialRead(static_cast<size_t>(stats.raw_series_examined),
                           n * sizeof(core::Value), &stats);
  stats.cpu_seconds = timer.Seconds();
  return stats;
}

core::QueryResult MassScan::DoSearchKnn(core::SeriesView query,
                                        const core::KnnPlan& plan) {
  core::QueryResult result;
  core::KnnHeap& heap = core::ScratchKnnHeap(plan.k);
  result.stats = ScanAll(query, plan, [&](core::SeriesId id, double dist_sq) {
    heap.Offer(id, dist_sq);
  });
  heap.ExtractSortedTo(&result.neighbors);
  return result;
}

core::QueryResult MassScan::DoSearchRange(core::SeriesView query,
                                          const core::RangePlan& plan) {
  const double radius = plan.radius;
  core::QueryResult result;
  core::RangeCollector collector(radius * radius);
  result.stats = ScanAll(query, core::KnnPlan{},
                         [&](core::SeriesId id, double dist_sq) {
                           collector.Offer(id, dist_sq);
                         });
  result.neighbors = collector.TakeSorted();
  return result;
}

}  // namespace hydra::scan
