// core::ParallelScan contract: the one parallel primitive every method's
// intra-query workers run on. The blocks cover [0, count) exactly once at
// any width, never exceed the block size and name a valid worker; the
// serial path is a single scan(0, 0, count) call; an empty range makes no
// call at all.
#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "core/traversal.h"

namespace hydra::core {
namespace {

struct Call {
  size_t worker;
  size_t begin;
  size_t end;
};

TEST(ParallelScanTest, BlocksCoverEveryIndexExactlyOnce) {
  for (const size_t workers : {1, 2, 4, 8}) {
    for (const size_t count : {0, 1, 7, 1000}) {
      for (const size_t block : {1, 3, 1024}) {
        SCOPED_TRACE(testing::Message() << "workers " << workers << " count "
                                        << count << " block " << block);
        std::vector<std::atomic<int>> hits(count);
        std::atomic<bool> bad_block{false};
        ParallelScan(workers, count, block,
                     [&](size_t w, size_t begin, size_t end) {
                       if (w >= workers || begin >= end || end > count ||
                           (workers > 1 && end - begin > block)) {
                         bad_block = true;
                       }
                       for (size_t i = begin; i < end && i < count; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
        EXPECT_FALSE(bad_block.load());
        for (size_t i = 0; i < count; ++i) {
          EXPECT_EQ(hits[i].load(), 1) << "index " << i;
        }
      }
    }
  }
}

TEST(ParallelScanTest, WidthOneMakesOneWholeRangeCall) {
  for (const size_t count : {1, 7, 1000}) {
    for (const size_t block : {1, 3, 1024}) {
      std::vector<Call> calls;
      ParallelScan(1, count, block, [&](size_t w, size_t begin, size_t end) {
        calls.push_back({w, begin, end});
      });
      ASSERT_EQ(calls.size(), 1u) << "count " << count << " block " << block;
      EXPECT_EQ(calls[0].worker, 0u);
      EXPECT_EQ(calls[0].begin, 0u);
      EXPECT_EQ(calls[0].end, count);
    }
  }
}

TEST(ParallelScanTest, EmptyRangeMakesNoCall) {
  for (const size_t workers : {1, 2, 4, 8}) {
    std::mutex mu;
    size_t calls = 0;
    ParallelScan(workers, 0, 1, [&](size_t, size_t, size_t) {
      std::lock_guard<std::mutex> lock(mu);
      ++calls;
    });
    EXPECT_EQ(calls, 0u) << "workers " << workers;
  }
}

}  // namespace
}  // namespace hydra::core
