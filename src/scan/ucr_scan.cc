#include "scan/ucr_scan.h"

#include "core/distance.h"
#include "core/refine.h"
#include "util/check.h"

namespace hydra::scan {

core::BuildStats UcrScan::DoBuild(const core::Dataset& data) {
  data_ = &data;
  return core::BuildStats{};  // no preprocessing
}

core::QueryResult UcrScan::DoSearchKnn(core::SeriesView query,
                                       const core::KnnPlan& plan) {
  HYDRA_CHECK(data_ != nullptr);
  HYDRA_CHECK(query.size() == data_->length());
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  return core::ScanKnn(*data_, plan, [&](size_t i, double bound) {
    return order.Distance((*data_)[i], bound);
  });
}

core::QueryResult UcrScan::DoSearchRange(core::SeriesView query,
                                         const core::RangePlan& plan) {
  HYDRA_CHECK(data_ != nullptr);
  HYDRA_CHECK(query.size() == data_->length());
  const core::QueryOrder& order = core::ScratchQueryOrder(query);
  return core::ScanRange(*data_, plan, [&](size_t i, double bound) {
    return order.Distance((*data_)[i], bound);
  });
}

}  // namespace hydra::scan
