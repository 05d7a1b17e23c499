// Unit battery for the out-of-core buffer pool: geometry derivation,
// LRU victim order, the pinned-page discipline (including a genuine
// blocking wait on a one-frame pool), counter accounting, skip-sequential
// run reads (alone and through planned io::CountedStorage cursors), and
// concurrent readers (the TSan CI lane runs this suite via the `storage`
// label).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/raw_source.h"
#include "core/search_stats.h"
#include "io/counted_storage.h"
#include "io/series_file.h"
#include "storage/buffer_pool.h"

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

  // One series per page, `frames` frames: the smallest geometry that
  // still exercises eviction, so victim choice is fully observable.
  BufferPoolOptions TinyPool(size_t frames) {
    BufferPoolOptions options;
    options.page_bytes = kSeriesBytes;
    options.budget_bytes = frames * kSeriesBytes;
    return options;
  }

  io::SeriesFile file_;
  std::string path_;
  core::Dataset data_{"pool", kLength};  // the file's contents, in RAM
};

TEST_F(PoolTest, GeometryFromBudget) {
  OpenFile(100);
  BufferPoolOptions options;
  options.page_bytes = 4 * kSeriesBytes;
  options.budget_bytes = 10 * 4 * kSeriesBytes;
  BufferPool pool(&file_, options);
  EXPECT_EQ(pool.series_per_page(), 4u);
  EXPECT_EQ(pool.page_count(), 25u);  // ceil(100 / 4)
  EXPECT_EQ(pool.frame_count(), 10u);
  EXPECT_EQ(pool.frame_bytes(), 4 * kSeriesBytes);
}

TEST_F(PoolTest, GeometryClampsToMinimums) {
  OpenFile(10);
  BufferPoolOptions options;
  options.page_bytes = 1;    // below one series: rounds up to one
  options.budget_bytes = 1;  // below one frame: rounds up to one
  BufferPool pool(&file_, options);
  EXPECT_EQ(pool.series_per_page(), 1u);
  EXPECT_EQ(pool.frame_count(), 1u);
}

TEST_F(PoolTest, FramesNeverExceedPages) {
  OpenFile(3);
  BufferPoolOptions options;
  options.page_bytes = kSeriesBytes;
  options.budget_bytes = 100 * kSeriesBytes;  // budget for 100 frames
  BufferPool pool(&file_, options);
  EXPECT_EQ(pool.frame_count(), 3u);  // only 3 pages exist
}

TEST_F(PoolTest, ReadReturnsRequestedSeries) {
  OpenFile(20);
  BufferPool pool(&file_, TinyPool(2));
  core::RawSeriesSource::Pin pin;
  for (size_t i : {size_t{0}, size_t{7}, size_t{19}, size_t{7}}) {
    const core::SeriesView view = pool.ReadPinned(i, &pin, nullptr);
    ASSERT_EQ(view.size(), kLength);
    EXPECT_FLOAT_EQ(view[0], static_cast<core::Value>(i));
    EXPECT_FLOAT_EQ(view[kLength - 1], static_cast<core::Value>(i));
  }
}

TEST_F(PoolTest, LruEvictsLeastRecentlyUsed) {
  OpenFile(4);
  BufferPool pool(&file_, TinyPool(2));
  core::RawSeriesSource::Pin pin;
  core::SearchStats stats;
  pool.ReadPinned(0, &pin, &stats);  // miss: load page 0
  pool.ReadPinned(1, &pin, &stats);  // miss: load page 1
  pool.ReadPinned(0, &pin, &stats);  // hit: page 0 is now most recent
  pool.ReadPinned(2, &pin, &stats);  // miss: must evict page 1, not 0
  EXPECT_EQ(stats.pool_evictions, 1);
  pool.ReadPinned(0, &pin, &stats);  // still resident: hit
  EXPECT_EQ(stats.pool_hits, 2);
  pool.ReadPinned(1, &pin, &stats);  // was evicted: miss again
  EXPECT_EQ(stats.pool_misses, 4);
  EXPECT_EQ(stats.pool_evictions, 2);
}

TEST_F(PoolTest, CountersMeasureRealReads) {
  OpenFile(8);
  BufferPool pool(&file_, TinyPool(2));
  core::RawSeriesSource::Pin pin;
  core::SearchStats stats;
  pool.ReadPinned(0, &pin, &stats);
  pool.ReadPinned(0, &pin, &stats);
  pool.ReadPinned(1, &pin, &stats);
  EXPECT_EQ(stats.pool_misses, 2);
  EXPECT_EQ(stats.pool_hits, 1);
  EXPECT_EQ(stats.pool_pread_calls, 2);
  EXPECT_EQ(stats.pool_bytes_read, static_cast<int64_t>(2 * kSeriesBytes));
  const PoolCounters totals = pool.counters();
  EXPECT_EQ(totals.misses, 2);
  EXPECT_EQ(totals.hits, 1);
  EXPECT_EQ(totals.pread_calls, 2);
  EXPECT_EQ(totals.bytes_read, static_cast<int64_t>(2 * kSeriesBytes));
  EXPECT_EQ(totals.evictions, 0);  // two frames, two pages touched
}

TEST_F(PoolTest, SamePagePinnedReadIsAHit) {
  OpenFile(8);
  BufferPoolOptions options;
  options.page_bytes = 4 * kSeriesBytes;  // series 0..3 share page 0
  options.budget_bytes = options.page_bytes;
  BufferPool pool(&file_, options);
  core::RawSeriesSource::Pin pin;
  core::SearchStats stats;
  const core::SeriesView a = pool.ReadPinned(1, &pin, &stats);
  const core::SeriesView b = pool.ReadPinned(3, &pin, &stats);
  EXPECT_FLOAT_EQ(a[0], 1.0f);  // still valid: same pin, same page
  EXPECT_FLOAT_EQ(b[0], 3.0f);
  EXPECT_EQ(stats.pool_misses, 1);
  EXPECT_EQ(stats.pool_hits, 1);
}

TEST_F(PoolTest, ReaderBlocksUntilPinReleased) {
  OpenFile(4);
  BufferPool pool(&file_, TinyPool(1));  // a single frame
  core::RawSeriesSource::Pin holder;
  pool.ReadPinned(0, &holder, nullptr);  // the only frame is now pinned
  std::atomic<bool> done{false};
  std::thread blocked([&] {
    core::RawSeriesSource::Pin pin;
    const core::SeriesView view = pool.ReadPinned(1, &pin, nullptr);
    EXPECT_FLOAT_EQ(view[0], 1.0f);
    done.store(true);
  });
  // The reader cannot proceed while the frame is pinned; give it a
  // moment to prove it is actually waiting rather than racing past.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load());
  holder.Release();
  blocked.join();
  EXPECT_TRUE(done.load());
}

TEST_F(PoolTest, ReleaseIsIdempotent) {
  OpenFile(4);
  BufferPool pool(&file_, TinyPool(1));
  core::RawSeriesSource::Pin pin;
  pool.ReadPinned(2, &pin, nullptr);
  pin.Release();
  pin.Release();  // second release is a no-op, not a double-unpin
  core::RawSeriesSource::Pin other;
  const core::SeriesView view = pool.ReadPinned(3, &other, nullptr);
  EXPECT_FLOAT_EQ(view[0], 3.0f);
}

TEST_F(PoolTest, RepinningReleasesPreviousHold) {
  OpenFile(4);
  BufferPool pool(&file_, TinyPool(1));
  core::RawSeriesSource::Pin pin;
  // With one frame, each fetch through the same pin must implicitly
  // release the previous hold — otherwise the second read deadlocks.
  pool.ReadPinned(0, &pin, nullptr);
  pool.ReadPinned(1, &pin, nullptr);
  const core::SeriesView view = pool.ReadPinned(2, &pin, nullptr);
  EXPECT_FLOAT_EQ(view[0], 2.0f);
}

TEST_F(PoolTest, ConcurrentReadersSeeConsistentData) {
  constexpr size_t kCount = 64;
  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 400;
  OpenFile(kCount);
  BufferPool pool(&file_, TinyPool(3));  // far smaller than the file
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&pool, &wrong, t] {
      core::RawSeriesSource::Pin pin;
      core::SearchStats stats;
      for (int r = 0; r < kReadsPerThread; ++r) {
        const size_t i = (static_cast<size_t>(t) * 31 + r * 7) % kCount;
        const core::SeriesView view = pool.ReadPinned(i, &pin, &stats);
        if (view[0] != static_cast<core::Value>(i) ||
            view[kLength - 1] != static_cast<core::Value>(i)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(wrong.load(), 0);
  const PoolCounters totals = pool.counters();
  EXPECT_EQ(totals.hits + totals.misses,
            static_cast<int64_t>(kThreads) * kReadsPerThread);
  EXPECT_GT(totals.misses, 0);
}

TEST_F(PoolTest, RunOverResidentPageIsAllHits) {
  OpenFile(8);
  BufferPoolOptions options;
  options.page_bytes = 4 * kSeriesBytes;
  options.budget_bytes = 2 * options.page_bytes;
  BufferPool pool(&file_, options);
  core::RawSeriesSource::Pin pin;
  pool.ReadPinned(1, &pin, nullptr);  // page 0 resident
  pin.Release();
  core::SearchStats stats;
  std::vector<core::Value> out(3 * kLength);
  pool.ReadRun(1, 3, out.data(), &stats);
  EXPECT_TRUE(HoldsSeries(out, 1, 3));
  EXPECT_EQ(stats.pool_hits, 3);
  EXPECT_EQ(stats.pool_misses, 0);
  EXPECT_EQ(stats.pool_pread_calls, 0);
  EXPECT_EQ(stats.pool_bytes_read, 0);
}

TEST_F(PoolTest, RunOverAbsentPagesPreadsOnceAndLeavesFramesAlone) {
  OpenFile(16);
  BufferPoolOptions options;
  options.page_bytes = 4 * kSeriesBytes;  // pages 0..3
  options.budget_bytes = 2 * options.page_bytes;
  BufferPool pool(&file_, options);
  core::RawSeriesSource::Pin pin;
  pool.ReadPinned(0, &pin, nullptr);  // page 0, then page 1: page 0 is LRU
  pool.ReadPinned(4, &pin, nullptr);
  pin.Release();
  const PoolCounters before = pool.counters();

  core::SearchStats stats;
  std::vector<core::Value> out(6 * kLength);
  pool.ReadRun(9, 6, out.data(), &stats);  // series 9..14: pages 2 and 3
  EXPECT_TRUE(HoldsSeries(out, 9, 6));
  EXPECT_EQ(stats.pool_misses, 1);
  EXPECT_EQ(stats.pool_pread_calls, 1);
  EXPECT_EQ(stats.pool_bytes_read, static_cast<int64_t>(6 * kSeriesBytes));
  EXPECT_EQ(stats.pool_hits, 0);
  EXPECT_EQ(stats.pool_evictions, 0);
  EXPECT_EQ(pool.counters().evictions, before.evictions);

  // Residency and LRU order are as before the run: pages 0 and 1 are
  // still resident, and page 0 is still the victim of the next miss.
  core::SearchStats after;
  pool.ReadPinned(8, &pin, &after);  // page 2: evicts page 0
  pool.ReadPinned(5, &pin, &after);  // page 1: still resident
  EXPECT_EQ(after.pool_misses, 1);
  EXPECT_EQ(after.pool_hits, 1);
  EXPECT_EQ(after.pool_evictions, 1);
  pool.ReadPinned(0, &pin, &after);  // page 0 was the one evicted
  EXPECT_EQ(after.pool_misses, 2);
}

TEST_F(PoolTest, RunSplitsAroundResidentPage) {
  OpenFile(12);
  BufferPoolOptions options;
  options.page_bytes = 4 * kSeriesBytes;
  options.budget_bytes = options.page_bytes;
  BufferPool pool(&file_, options);
  core::RawSeriesSource::Pin pin;
  pool.ReadPinned(5, &pin, nullptr);  // page 1 resident, and stays pinned
  core::SearchStats stats;
  std::vector<core::Value> out(10 * kLength);
  // A run never waits on a pin, even one the reader holds itself.
  pool.ReadRun(2, 10, out.data(), &stats);  // 2..3 | 4..7 | 8..11
  EXPECT_TRUE(HoldsSeries(out, 2, 10));
  EXPECT_EQ(stats.pool_hits, 4);
  EXPECT_EQ(stats.pool_misses, 2);
  EXPECT_EQ(stats.pool_pread_calls, 2);
  EXPECT_EQ(stats.pool_bytes_read, static_cast<int64_t>(6 * kSeriesBytes));
}

TEST_F(PoolTest, PlannedCursorCoalescesCandidatesIntoRuns) {
  OpenFile(64);
  BufferPoolOptions options;
  options.page_bytes = 64 * kSeriesBytes;  // runs may span 64 series
  options.budget_bytes = options.page_bytes;
  BufferPool pool(&file_, options);
  data_.AttachRawSource(&pool);
  io::CountedStorage storage(&data_);
  ASSERT_TRUE(storage.pooled());
  // Two clusters far apart: each becomes one run, gaps read through.
  const std::vector<core::SeriesId> plan = {3, 5, 9, 40, 41};
  storage.SetPlan(plan);
  core::SearchStats stats;
  for (const core::SeriesId i : {3, 9, 40, 41}) {  // 5 is pruned
    EXPECT_FLOAT_EQ(storage.Read(i, &stats)[0], static_cast<core::Value>(i));
  }
  EXPECT_EQ(stats.pool_direct_reads, 4);
  EXPECT_EQ(stats.pool_misses, 2);
  EXPECT_EQ(stats.pool_pread_calls, 2);
  EXPECT_EQ(stats.pool_bytes_read,
            static_cast<int64_t>((7 + 2) * kSeriesBytes));  // 3..9, 40..41
  EXPECT_EQ(stats.pool_hits, 0);
  // The modeled ledger is that of the plain cursor: every skip a seek.
  EXPECT_EQ(stats.random_seeks, 3);
  EXPECT_EQ(stats.sequential_reads, 4);
  // A read outside the plan is still served, as a run of its own.
  EXPECT_FLOAT_EQ(storage.Read(50, &stats)[0], 50.0f);
  EXPECT_EQ(stats.pool_misses, 3);
  // Without a plan the cursor is back on the page path.
  storage.ClearPlan();
  storage.Read(52, &stats);
  EXPECT_EQ(stats.pool_direct_reads, 5);
  EXPECT_EQ(stats.pool_misses, 4);
  storage.ReleasePin();
  EXPECT_EQ(pool.counters().evictions, 0);  // one frame, one page load
}

TEST_F(PoolTest, RunNeverCrossesSliceEnd) {
  OpenFile(32);
  BufferPoolOptions options;
  options.page_bytes = 32 * kSeriesBytes;
  options.budget_bytes = options.page_bytes;
  BufferPool pool(&file_, options);
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
  EXPECT_EQ(stats.pool_pread_calls, 1);
  EXPECT_EQ(stats.pool_bytes_read, static_cast<int64_t>(5 * kSeriesBytes));
}

TEST_F(PoolTest, PlannedCursorsAndPageReaderShareOneFrame) {
  constexpr size_t kCount = 96;
  constexpr int kPasses = 40;
  OpenFile(kCount);
  BufferPoolOptions options;
  options.page_bytes = 4 * kSeriesBytes;
  options.budget_bytes = options.page_bytes;  // a single frame
  BufferPool pool(&file_, options);
  data_.AttachRawSource(&pool);
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([this, &wrong, t] {
      std::vector<core::SeriesId> plan;
      for (size_t i = t; i < kCount; i += 3 + t) {
        plan.push_back(static_cast<core::SeriesId>(i));
      }
      io::CountedStorage storage(&data_);
      core::SearchStats stats;
      for (int pass = 0; pass < kPasses; ++pass) {
        storage.SetPlan(plan);
        for (size_t j = 0; j < plan.size(); j += 1 + (j + pass) % 2) {
          if (storage.Read(plan[j], &stats)[kLength - 1] !=
              static_cast<core::Value>(plan[j])) {
            wrong.fetch_add(1);
          }
        }
      }
      storage.ClearPlan();
    });
  }
  readers.emplace_back([this, &pool, &wrong] {
    core::RawSeriesSource::Pin pin;
    for (int r = 0; r < kPasses * 40; ++r) {
      const size_t i = (static_cast<size_t>(r) * 13) % kCount;
      if (pool.ReadPinned(i, &pin, nullptr)[0] !=
          static_cast<core::Value>(i)) {
        wrong.fetch_add(1);
      }
    }
  });
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace hydra::storage
