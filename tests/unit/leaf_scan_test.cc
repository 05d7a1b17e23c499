// The member filter of index::ScanLeaf, driven with the traversal's own
// core::TreeWorker over a real sink. The filter bounds every member in one
// batch and compacts the survivors without a branch; these cases pin what
// it keeps (ScratchLeafSurvivors after the call) against the sink's
// admission rule: a k-NN heap keeps only lb < bsf, a range collector
// lb <= r^2, and survivors and their bounds come out in leaf order exactly
// as a member-by-member loop would keep them.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/knn.h"
#include "core/query_spec.h"
#include "core/search_stats.h"
#include "core/traversal.h"
#include "gen/random_walk.h"
#include "index/leaf_scan.h"
#include "io/counted_storage.h"
#include "transform/isax.h"
#include "util/rng.h"

namespace hydra::index {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kSeries = 64;
constexpr size_t kLength = 64;

using KnnWorker = core::TreeWorker<core::KnnHeap, false>;
using RangeWorker = core::TreeWorker<core::RangeCollector, false>;

/// A member bound read from a table indexed by series id.
struct TableBound {
  const std::vector<double>* lb;

  void operator()(std::span<const core::SeriesId> ids, double* out) const {
    for (size_t i = 0; i < ids.size(); ++i) out[i] = (*lb)[ids[i]];
  }
};

/// A k-NN heap whose bound is `bsf` (an empty heap when it is infinite).
core::KnnHeap HeapAt(double bsf) {
  core::KnnHeap heap(1);
  if (bsf < kInf) heap.Offer(kSeries, bsf);  // an id outside the leaf
  return heap;
}

class LeafScanTest : public ::testing::Test {
 protected:
  LeafScanTest()
      : data_(gen::RandomWalkDataset(kSeries, kLength, 7)),
        order_(data_[0]),
        raw_(&data_) {}

  /// Runs ScanLeaf over `ids` and returns the filter's survivors.
  template <typename W, typename Bound>
  core::Candidates Scan(std::span<const core::SeriesId> ids, const W& w,
                        const Bound& bound) {
    ScanLeaf(ids, raw_, order_, w, bound);
    return ScratchLeafSurvivors();
  }

  core::Dataset data_;
  core::QueryOrder order_;
  io::CountedStorage raw_;
  core::KnnPlan plan_;
};

TEST_F(LeafScanTest, EqualBoundIsDroppedForKnnAndKeptForRange) {
  const double bsf = 10.0;
  std::vector<double> lb(kSeries, 2 * bsf);
  lb[3] = bsf;                                 // exactly on the bound
  lb[5] = std::nextafter(bsf, 0.0);            // one ulp inside
  lb[6] = std::nextafter(bsf, kInf);           // one ulp outside
  lb[9] = 0.0;
  const std::vector<core::SeriesId> ids = {1, 3, 5, 6, 9, 12};

  core::KnnHeap heap = HeapAt(bsf);
  core::SearchStats knn_stats;
  const KnnWorker knn(0, &heap, &knn_stats, plan_);
  const core::Candidates knn_kept = Scan(ids, knn, TableBound{&lb});
  EXPECT_EQ(knn_kept.ids, (std::vector<core::SeriesId>{5, 9}));
  EXPECT_EQ(knn_kept.bounds, (std::vector<double>{lb[5], lb[9]}));
  EXPECT_EQ(knn_stats.lower_bound_computations, 6);

  core::RangeCollector range(bsf);
  core::SearchStats range_stats;
  const RangeWorker in_range(0, &range, &range_stats, std::sqrt(bsf));
  const core::Candidates range_kept = Scan(ids, in_range, TableBound{&lb});
  EXPECT_EQ(range_kept.ids, (std::vector<core::SeriesId>{3, 5, 9}));
  EXPECT_EQ(range_kept.bounds, (std::vector<double>{lb[3], lb[5], lb[9]}));
  EXPECT_EQ(range_stats.lower_bound_computations, 6);
}

// The iSAX member bound over random full-resolution words, at every leaf
// size up to two groups of four plus a tail and one larger leaf, with the
// sink bound above every member (all survive), at the middle member's
// bound (some do) and at the lowest member bound (no k-NN survivor; the
// range keeps the members on it).
TEST_F(LeafScanTest, SurvivorsEqualAMemberByMemberLoop) {
  constexpr size_t kSegments = 16;
  util::Rng rng(34);
  std::vector<uint8_t> words(kSeries * kSegments);
  for (uint8_t& sym : words) {
    sym = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  std::vector<double> paa_q(kSegments);
  for (double& v : paa_q) v = rng.Gaussian();
  transform::IsaxQueryTable table;
  table.Reset(paa_q, kLength / kSegments);
  const IsaxMemberBound bound{&table, words.data()};

  for (const size_t size : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 40u}) {
    // An ascending random subset of the series, as a leaf lists them.
    std::vector<core::SeriesId> ids;
    for (size_t i = 0; i < kSeries && ids.size() < size; ++i) {
      if (rng.UniformInt(0, 2) == 0 || kSeries - i == size - ids.size()) {
        ids.push_back(static_cast<core::SeriesId>(i));
      }
    }
    ASSERT_EQ(ids.size(), size);
    std::vector<double> lbs;
    for (const core::SeriesId id : ids) {
      lbs.push_back(table.LowerBoundSq(words.data() + id * kSegments));
    }
    const double lowest = *std::min_element(lbs.begin(), lbs.end());
    const double middle = lbs[size / 2];

    for (const double sink_bound : {kInf, middle, lowest}) {
      SCOPED_TRACE(testing::Message() << "leaf size " << size
                                      << " sink bound " << sink_bound);
      core::KnnHeap heap = HeapAt(sink_bound);
      core::SearchStats knn_stats;
      const KnnWorker knn(0, &heap, &knn_stats, plan_);
      core::RangeCollector range(sink_bound);
      core::SearchStats range_stats;
      const RangeWorker in_range(0, &range, &range_stats,
                                 std::sqrt(sink_bound));

      // The loop the filter replaces, run before the refine can move the
      // k-NN bound.
      core::Candidates knn_want;
      core::Candidates range_want;
      for (size_t i = 0; i < size; ++i) {
        if (knn.MemberAdmits(lbs[i])) knn_want.Add(ids[i], lbs[i]);
        if (in_range.MemberAdmits(lbs[i])) range_want.Add(ids[i], lbs[i]);
      }
      if (sink_bound == kInf) {
        EXPECT_EQ(knn_want.ids, ids);
        EXPECT_EQ(range_want.ids, ids);
      }
      if (sink_bound == lowest) {
        EXPECT_TRUE(knn_want.ids.empty());
      }

      const core::Candidates knn_kept = Scan(ids, knn, bound);
      EXPECT_EQ(knn_kept.ids, knn_want.ids);
      EXPECT_EQ(knn_kept.bounds, knn_want.bounds);
      EXPECT_EQ(knn_stats.lower_bound_computations,
                static_cast<int64_t>(size));
      const core::Candidates range_kept = Scan(ids, in_range, bound);
      EXPECT_EQ(range_kept.ids, range_want.ids);
      EXPECT_EQ(range_kept.bounds, range_want.bounds);
      EXPECT_EQ(range_stats.lower_bound_computations,
                static_cast<int64_t>(size));
    }
  }
}

}  // namespace
}  // namespace hydra::index
