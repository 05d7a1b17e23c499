// Unit battery for the out-of-core run reader (io::RunReader): geometry
// derivation, counter accounting, run reads (alone, through planned and
// unplanned io::CountedStorage cursors, and inside a shard slice), the
// budget's loans of run scratch to cursors, the run cap and budget
// StorageHandle::Describe prints, and concurrent readers (the TSan CI lane
// runs this suite via the `storage` label).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/search_stats.h"
#include "io/counted_storage.h"
#include "io/series_file.h"
#include "storage/backend.h"

namespace hydra::storage {
namespace {

constexpr size_t kLength = 8;
constexpr size_t kSeriesBytes = kLength * sizeof(core::Value);

// Writes `count` series where series i is constant-valued i, and opens a
// positional handle on the result. The value encodes the identity, so
// every test can verify a read returned the series it asked for.
class PoolTest : public ::testing::Test {
 protected:
  void OpenFile(size_t count) {
    path_ = ::testing::TempDir() + "/hydra_pool_test.bin";
    core::Dataset data("pool", kLength);
    for (size_t i = 0; i < count; ++i) {
      std::vector<core::Value> row(kLength, static_cast<core::Value>(i));
      data.Append(row);
    }
    ASSERT_TRUE(io::WriteSeriesFile(path_, data).ok());
    auto opened = io::SeriesFile::Open(path_);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    file_ = std::move(opened).value();
    data_ = std::move(data);
  }

  // True when `out` holds series [first, first + n) of the file.
  static bool HoldsSeries(const std::vector<core::Value>& out, size_t first,
                          size_t n) {
    for (size_t j = 0; j < n * kLength; ++j) {
      if (out[j] != static_cast<core::Value>(first + j / kLength)) {
        return false;
      }
    }
    return true;
  }

  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  // Runs of one series, a budget of `series` series.
  io::RunReaderOptions TinyPool(size_t series) {
    io::RunReaderOptions options;
    options.page_bytes = kSeriesBytes;
    options.budget_bytes = series * kSeriesBytes;
    return options;
  }

  io::SeriesFile file_;
  std::string path_;
  core::Dataset data_{"pool", kLength};  // the file's contents, in RAM
};

TEST_F(PoolTest, GeometryFromBudget) {
  OpenFile(100);
  io::RunReaderOptions options;
  options.page_bytes = 4 * kSeriesBytes;
  options.budget_bytes = 10 * 4 * kSeriesBytes;
  io::RunReader pool(&file_, options);
  EXPECT_EQ(pool.max_run_series(), 4u);
  EXPECT_EQ(pool.budget_series(), 40u);
  EXPECT_EQ(pool.available_series(), 40u);
}

TEST_F(PoolTest, GeometryClampsToMinimums) {
  OpenFile(10);
  io::RunReaderOptions options;
  options.page_bytes = 1;    // below one series: rounds up to one
  options.budget_bytes = 1;  // below one series: nothing to lend
  io::RunReader pool(&file_, options);
  EXPECT_EQ(pool.max_run_series(), 1u);
  EXPECT_EQ(pool.budget_series(), 0u);
  EXPECT_EQ(pool.BorrowRun(1), 0u);
}

TEST_F(PoolTest, LoanNeverExceedsLargestRun) {
  OpenFile(3);
  io::RunReaderOptions options;
  options.page_bytes = kSeriesBytes;
  options.budget_bytes = 100 * kSeriesBytes;
  io::RunReader pool(&file_, options);
  EXPECT_EQ(pool.BorrowRun(128), 1u);  // runs are one series here
  EXPECT_EQ(pool.available_series(), 99u);
  pool.ReturnRun(1);
  EXPECT_EQ(pool.available_series(), 100u);
}

TEST_F(PoolTest, ReadReturnsRequestedSeries) {
  OpenFile(20);
  io::RunReader pool(&file_, TinyPool(2));
  std::vector<core::Value> out(kLength);
  for (size_t i : {size_t{0}, size_t{7}, size_t{19}, size_t{7}}) {
    pool.ReadRun(i, 1, out.data(), nullptr);
    EXPECT_TRUE(HoldsSeries(out, i, 1));
  }
}

TEST_F(PoolTest, CountersMeasureRealReads) {
  OpenFile(8);
  io::RunReader pool(&file_, TinyPool(2));
  core::SearchStats stats;
  std::vector<core::Value> out(kLength);
  pool.ReadRun(0, 1, out.data(), &stats);
  pool.ReadRun(0, 1, out.data(), &stats);  // nothing is cached: a pread
  pool.ReadRun(1, 1, out.data(), &stats);
  EXPECT_EQ(stats.pool_misses, 3);
  EXPECT_EQ(stats.pool_hits, 0);
  EXPECT_EQ(stats.pool_evictions, 0);
  EXPECT_EQ(stats.pool_bytes_read, static_cast<int64_t>(3 * kSeriesBytes));
}

TEST_F(PoolTest, RunIsOnePread) {
  OpenFile(16);
  io::RunReaderOptions options;
  options.page_bytes = 8 * kSeriesBytes;  // the largest run
  options.budget_bytes = options.page_bytes;
  io::RunReader pool(&file_, options);
  core::SearchStats stats;
  std::vector<core::Value> out(6 * kLength);
  pool.ReadRun(5, 6, out.data(), &stats);  // crosses the 8-series mark
  EXPECT_TRUE(HoldsSeries(out, 5, 6));
  EXPECT_EQ(stats.pool_misses, 1);
  EXPECT_EQ(stats.pool_bytes_read, static_cast<int64_t>(6 * kSeriesBytes));
  EXPECT_EQ(stats.pool_hits, 0);
  EXPECT_EQ(stats.pool_evictions, 0);
}

// Concurrent readers of one pool: run reads and loans race on the pool's
// one atomic, and every read still returns the series it asked for (the
// TSan CI lane runs this suite via the `storage` label).
TEST_F(PoolTest, ConcurrentReadersSeeConsistentData) {
  constexpr size_t kCount = 64;
  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 400;
  OpenFile(kCount);
  io::RunReaderOptions options;
  options.page_bytes = 4 * kSeriesBytes;
  options.budget_bytes = 3 * options.page_bytes;  // lends to 3 of 8
  io::RunReader pool(&file_, options);
  std::atomic<int> wrong{0};
  std::atomic<int64_t> preads{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&pool, &wrong, &preads, t] {
      core::SearchStats stats;
      std::vector<core::Value> out(4 * kLength);
      for (int r = 0; r < kReadsPerThread; ++r) {
        const size_t lent = pool.BorrowRun(4);
        const size_t n = std::max<size_t>(1, lent);
        const size_t i = (static_cast<size_t>(t) * 31 + r * 7) % (kCount - n);
        pool.ReadRun(i, n, out.data(), &stats);
        if (!HoldsSeries(out, i, n)) wrong.fetch_add(1);
        if (lent != 0) pool.ReturnRun(lent);
      }
      preads.fetch_add(stats.pool_misses);
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(preads.load(), static_cast<int64_t>(kThreads) * kReadsPerThread);
  EXPECT_EQ(pool.available_series(), pool.budget_series());
}

// The budget caps the run scratch lent to open cursors: two cursors take
// it all, a third reads one series per pread instead of waiting, and a
// destroyed cursor gives its loan back for the next one.
TEST_F(PoolTest, BudgetLendsRunScratchToCursors) {
  OpenFile(16);
  io::RunReaderOptions options;
  options.page_bytes = 4 * kSeriesBytes;          // runs of up to 4 series
  options.budget_bytes = 2 * options.page_bytes;  // two runs' scratch
  io::RunReader pool(&file_, options);
  data_.AttachRawSource(&pool);
  const std::vector<core::SeriesId> plan = {4, 5, 6, 7};
  const auto read_plan = [&](io::CountedStorage& storage) {
    core::SearchStats stats;
    storage.SetPlan(plan);
    for (const core::SeriesId i : plan) {
      EXPECT_FLOAT_EQ(storage.Read(i, &stats)[0],
                      static_cast<core::Value>(i));
    }
    return stats;
  };
  auto first = std::make_unique<io::CountedStorage>(&data_);
  io::CountedStorage second(&data_);
  io::CountedStorage third(&data_);
  EXPECT_EQ(pool.available_series(), 8u);  // loans start at the first run
  EXPECT_EQ(read_plan(*first).pool_misses, 1);
  EXPECT_EQ(read_plan(second).pool_misses, 1);
  EXPECT_EQ(pool.available_series(), 0u);
  const core::SearchStats unlent = read_plan(third);
  EXPECT_EQ(unlent.pool_misses, 4);  // one-series runs, no wait
  EXPECT_EQ(unlent.pool_direct_reads, 4);
  EXPECT_EQ(unlent.pool_bytes_read, static_cast<int64_t>(4 * kSeriesBytes));
  first.reset();
  EXPECT_EQ(pool.available_series(), 4u);
  io::CountedStorage fourth(&data_);
  EXPECT_EQ(read_plan(fourth).pool_misses, 1);
  EXPECT_EQ(pool.available_series(), 0u);
}

// A read without a plan (the R*-tree's leaf entries) is a run of one
// series: one pread of exactly that series, and no hit.
TEST_F(PoolTest, UnplannedReadPreadsOneSeries) {
  OpenFile(16);
  io::RunReaderOptions options;
  options.page_bytes = 8 * kSeriesBytes;
  options.budget_bytes = options.page_bytes;
  io::RunReader pool(&file_, options);
  data_.AttachRawSource(&pool);
  io::CountedStorage storage(&data_);
  core::SearchStats stats;
  EXPECT_FLOAT_EQ(storage.Read(6, &stats)[kLength - 1], 6.0f);
  EXPECT_EQ(stats.pool_misses, 1);
  EXPECT_EQ(stats.pool_bytes_read, static_cast<int64_t>(kSeriesBytes));
  EXPECT_EQ(stats.pool_hits, 0);
  EXPECT_EQ(stats.pool_direct_reads, 1);
  // The next series is a run of its own too: nothing was read ahead.
  EXPECT_FLOAT_EQ(storage.Read(7, &stats)[0], 7.0f);
  EXPECT_EQ(stats.pool_misses, 2);
  EXPECT_EQ(stats.pool_bytes_read, static_cast<int64_t>(2 * kSeriesBytes));
}

TEST_F(PoolTest, PlannedCursorCoalescesCandidatesIntoRuns) {
  OpenFile(64);
  io::RunReaderOptions options;
  options.page_bytes = 64 * kSeriesBytes;  // runs may span 64 series
  options.budget_bytes = options.page_bytes;
  io::RunReader pool(&file_, options);
  data_.AttachRawSource(&pool);
  io::CountedStorage storage(&data_);
  ASSERT_NE(data_.raw_source(), nullptr);
  // Two clusters far apart: each becomes one run, gaps read through.
  const std::vector<core::SeriesId> plan = {3, 5, 9, 40, 41};
  storage.SetPlan(plan);
  core::SearchStats stats;
  for (const core::SeriesId i : {3, 9, 40, 41}) {  // 5 is pruned
    EXPECT_FLOAT_EQ(storage.Read(i, &stats)[0], static_cast<core::Value>(i));
  }
  EXPECT_EQ(stats.pool_direct_reads, 4);
  EXPECT_EQ(stats.pool_misses, 2);
  EXPECT_EQ(stats.pool_bytes_read,
            static_cast<int64_t>((7 + 2) * kSeriesBytes));  // 3..9, 40..41
  EXPECT_EQ(stats.pool_hits, 0);
  // The modeled ledger is that of the plain cursor: every skip a seek.
  EXPECT_EQ(stats.random_seeks, 3);
  EXPECT_EQ(stats.sequential_reads, 4);
  // A read outside the plan is still served, as a run of its own.
  EXPECT_FLOAT_EQ(storage.Read(50, &stats)[0], 50.0f);
  EXPECT_EQ(stats.pool_misses, 3);
}

TEST_F(PoolTest, RunNeverCrossesSliceEnd) {
  OpenFile(32);
  io::RunReaderOptions options;
  options.page_bytes = 32 * kSeriesBytes;
  options.budget_bytes = options.page_bytes;
  io::RunReader pool(&file_, options);
  data_.AttachRawSource(&pool);
  // A shard slice over series [10, 16): its reads address the pool at
  // raw_base 10, and no run may reach past series 15.
  const core::Dataset slice = data_.Slice(10, 6);
  io::CountedStorage storage(&slice);
  const std::vector<core::SeriesId> plan = {1, 3, 5};
  storage.SetPlan(plan);
  core::SearchStats stats;
  for (const core::SeriesId i : plan) {
    EXPECT_FLOAT_EQ(storage.Read(i, &stats)[0],
                    static_cast<core::Value>(10 + i));
  }
  EXPECT_EQ(stats.pool_misses, 1);
  EXPECT_EQ(stats.pool_bytes_read, static_cast<int64_t>(5 * kSeriesBytes));
}

// Describe() names the run cap a cursor actually reads with: a planned
// cursor over 1,000 consecutive ids never preads a longer run, and reaches
// that cap. Three geometries: the cursor's own kRunMaxSeries under a page
// that would allow far longer runs, a page shorter than that, and a budget
// that cannot lend one run (every read is then one series).
TEST_F(PoolTest, DescribedRunCapBoundsPlannedRuns) {
  OpenFile(1000);
  struct Geometry {
    size_t page_bytes;
    size_t budget_bytes;
    size_t cap;
  };
  const Geometry geometries[] = {
      {size_t{1} << 20, size_t{6} << 20, io::CountedStorage::kRunMaxSeries},
      {10 * kSeriesBytes, size_t{6} << 20, 10},
      {size_t{1} << 20, 100 * kSeriesBytes, 1},
  };
  for (const Geometry& geometry : geometries) {
    SCOPED_TRACE(geometry.cap);
    StorageOptions options;
    options.backend = StorageBackend::kMmap;
    options.pool.page_bytes = geometry.page_bytes;
    options.pool.budget_bytes = geometry.budget_bytes;
    auto handle = StorageHandle::Open(path_, "pool", options);
    ASSERT_TRUE(handle.ok()) << handle.status().message();
    const std::string text = handle.value().Describe();
    const std::string marker = "runs of at most ";
    const size_t at = text.find(marker);
    ASSERT_NE(at, std::string::npos) << text;
    const size_t cap = std::stoul(text.substr(at + marker.size()));
    EXPECT_EQ(cap, geometry.cap) << text;

    const core::Dataset& data = handle.value().dataset();
    std::vector<core::SeriesId> plan(data.size());
    for (size_t i = 0; i < plan.size(); ++i) {
      plan[i] = static_cast<core::SeriesId>(i);
    }
    io::CountedStorage storage(&data);
    storage.SetPlan(plan);
    core::SearchStats stats;
    size_t run_start = 0;
    size_t longest = 0;
    for (const core::SeriesId i : plan) {
      const int64_t preads = stats.pool_misses;
      EXPECT_FLOAT_EQ(storage.Read(i, &stats)[0],
                      static_cast<core::Value>(i));
      if (stats.pool_misses != preads) {  // series i starts a new run
        longest = std::max<size_t>(longest, i - run_start);
        run_start = i;
      }
    }
    longest = std::max(longest, plan.size() - run_start);
    EXPECT_EQ(longest, cap);
    EXPECT_EQ(stats.pool_bytes_read,
              static_cast<int64_t>(plan.size() * kSeriesBytes));
  }
}

// Describe() prints the budget as given. 1 MiB is not a whole number of
// 384-byte series (length 96), and still reads pool=1MiB; a budget that is
// not a whole number of MiB prints in bytes.
TEST_F(PoolTest, DescribePrintsBudgetAsGiven) {
  constexpr size_t kWide = 96;
  path_ = ::testing::TempDir() + "/hydra_pool_test_wide.bin";
  core::Dataset data("wide", kWide);
  for (size_t i = 0; i < 3000; ++i) {
    std::vector<core::Value> row(kWide, static_cast<core::Value>(i));
    data.Append(row);
  }
  ASSERT_TRUE(io::WriteSeriesFile(path_, data).ok());
  StorageOptions options;
  options.backend = StorageBackend::kMmap;
  options.pool.budget_bytes = size_t{1} << 20;
  auto handle = StorageHandle::Open(path_, "wide", options);
  ASSERT_TRUE(handle.ok()) << handle.status().message();
  EXPECT_EQ(handle.value().Describe(),
            "storage: mmap pool=1MiB (run scratch for readers, runs of at "
            "most 128 series)");
  options.pool.budget_bytes = (size_t{3} << 20) / 2;
  handle = StorageHandle::Open(path_, "wide", options);
  ASSERT_TRUE(handle.ok()) << handle.status().message();
  EXPECT_EQ(handle.value().Describe(),
            "storage: mmap pool=1572864B (run scratch for readers, runs of "
            "at most 128 series)");
}

}  // namespace
}  // namespace hydra::storage
