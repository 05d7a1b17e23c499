#include "util/thread_pool.h"

#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/traversal.h"

namespace hydra::util {
namespace {

TEST(ThreadPoolTest, HardwareConcurrencyAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

TEST(ThreadPoolTest, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kBegin = 7;
  constexpr size_t kEnd = 1000;
  std::vector<std::atomic<int>> visits(kEnd);
  pool.ParallelFor(kBegin, kEnd, [&](size_t i) {
    ASSERT_GE(i, kBegin);
    ASSERT_LT(i, kEnd);
    visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kBegin; ++i) EXPECT_EQ(visits[i].load(), 0);
  for (size_t i = kBegin; i < kEnd; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyAndReversedRangesAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](size_t) { ++calls; });
  pool.ParallelFor(9, 3, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, ParallelForWithOneWorkerIsStillComplete) {
  ThreadPool pool(1);
  std::vector<int> out(64, 0);
  pool.ParallelFor(0, out.size(), [&](size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 64);
}

TEST(ThreadPoolTest, ParallelForRangeSmallerThanPool) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(3);
  pool.ParallelFor(0, 3, [&](size_t i) { visits[i].fetch_add(1); });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ParallelForIsReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.ParallelFor(0, 50, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500u);
}

// The shard fan-out leans on these edge shapes: a 1-shard container is a
// single-item ParallelFor, a many-shard container on a small pool is
// more-tasks-than-workers, and the merge reads the slots non-atomically
// right after ParallelFor returns.
TEST(ThreadPoolTest, ParallelForSingleItem) {
  ThreadPool pool(4);
  std::atomic<int> visits{0};
  size_t seen = 999;
  pool.ParallelFor(3, 4, [&](size_t i) {
    seen = i;
    visits.fetch_add(1);
  });
  EXPECT_EQ(visits.load(), 1);
  EXPECT_EQ(seen, 3u);
}

TEST(ThreadPoolTest, ParallelForManyMoreTasksThanWorkers) {
  ThreadPool pool(2);
  constexpr size_t kTasks = 10000;
  std::vector<std::atomic<int>> visits(kTasks);
  pool.ParallelFor(0, kTasks, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWritesAreVisibleAfterReturn) {
  // Completion ordering: ParallelFor must not return before every index
  // ran, and its return must happen-after every worker write — the merge
  // phase reads these slots without further synchronization. Plain
  // (non-atomic) writes make TSan the judge of the happens-before edge.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::vector<size_t> out(257, 0);
    pool.ParallelFor(0, out.size(), [&](size_t i) { out[i] = i + 1; });
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], i + 1) << "round " << round;
    }
  }
}

TEST(ThreadPoolTest, ParallelForFromConcurrentCallers) {
  // Two non-worker threads may drive the same pool at once (concurrent
  // outer queries each fanning out across shards); each call's indices
  // must complete exactly once, independently.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> a(500);
  std::vector<std::atomic<int>> b(500);
  std::thread caller_a([&] {
    pool.ParallelFor(0, a.size(), [&](size_t i) { a[i].fetch_add(1); });
  });
  std::thread caller_b([&] {
    pool.ParallelFor(0, b.size(), [&](size_t i) { b[i].fetch_add(1); });
  });
  caller_a.join();
  caller_b.join();
  for (auto& v : a) EXPECT_EQ(v.load(), 1);
  for (auto& v : b) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, TasksRunOnWorkerThreads) {
  // The caller of ParallelFor takes part, so the indices run on at most
  // size() + 1 distinct threads, the caller's included.
  ThreadPool pool(2);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.ParallelFor(0, 200, [&](size_t) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), pool.size() + 1);
}

TEST(ThreadPoolTest, HardwareConcurrencyFollowsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(ThreadPool::HardwareConcurrency(),
            static_cast<size_t>(CPU_COUNT(&saved)));
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const size_t pinned = ThreadPool::HardwareConcurrency();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
}

TEST(ThreadPoolTest, NestedForkAndParallelForInsideATaskComplete) {
  // The task holds the pool's only worker, so every nested helper sits in
  // the queue until its caller has done the work alone: a join that waited
  // on queued helpers would never return, and one whose late helpers still
  // ran their body would count extra fork bodies.
  ThreadPool pool(1);
  std::atomic<int> fork_bodies{0};
  std::atomic<int> leaves{0};
  std::promise<void> done;
  pool.Submit([&] {
    pool.ParallelFor(0, 3, [&](size_t) {
      pool.Fork(3, [&](size_t) {
        fork_bodies.fetch_add(1);
        pool.ParallelFor(0, 3, [&](size_t) { leaves.fetch_add(1); });
      });
    });
    done.set_value();
  });
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(fork_bodies.load(), 3);
  EXPECT_EQ(leaves.load(), 9);
}

TEST(ThreadPoolTest, HelperThatStartsAfterTheCallerReturnedDoesNothing) {
  ThreadPool pool(1);
  std::latch release(1);
  pool.Submit([&release] { release.wait(); });  // holds the only worker
  std::atomic<int> helper_calls{0};
  std::atomic<int> caller_calls{0};
  pool.Fork(2, [&](size_t w) {
    (w == 0 ? caller_calls : helper_calls).fetch_add(1);
  });
  EXPECT_EQ(caller_calls.load(), 1);
  release.count_down();
  // FIFO: once this marker has run, the queued helper has run too.
  std::promise<void> drained;
  pool.Submit([&drained] { drained.set_value(); });
  drained.get_future().wait();
  EXPECT_EQ(helper_calls.load(), 0);
}

size_t ThreadsInProcess() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ThreadPoolTest, ParallelScanCreatesNoThreadPerCall) {
  // Kernel thread ids are not reused right away, so a scan that started a
  // thread per call would show hundreds of distinct ids here.
  const size_t before = ThreadsInProcess();
  std::mutex mu;
  std::set<pid_t> tids;
  for (int call = 0; call < 100; ++call) {
    core::ParallelScan(4, 64, 4, [&](size_t, size_t, size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      std::lock_guard<std::mutex> lock(mu);
      tids.insert(gettid());
    });
  }
  const size_t hw = ThreadPool::HardwareConcurrency();
  EXPECT_LE(ThreadsInProcess(), before + hw);
  EXPECT_LE(tids.size(), hw + 1);
}

}  // namespace
}  // namespace hydra::util
