#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "util/check.h"

namespace hydra::util {

ThreadPool::ThreadPool(size_t threads) {
  HYDRA_CHECK_MSG(threads >= 1, "ThreadPool needs at least one worker");
  workers_.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  HYDRA_CHECK(task != nullptr);
  // Notify under the lock: no worker takes the task before this call is
  // done with cv_, so the pool may be destroyed as soon as its tasks end.
  std::lock_guard<std::mutex> lock(mutex_);
  HYDRA_CHECK_MSG(!stop_, "Submit after ThreadPool destruction began");
  queue_.push_back(std::move(task));
  cv_.notify_one();
}

void ThreadPool::Fork(size_t workers,
                      const std::function<void(size_t)>& body) {
  // `state` is 2 x (helpers past their start) + 1 once the caller has
  // closed the join. A helper that finds it closed skips `body` (which may
  // be gone by then; the join itself outlives the call), and whoever
  // brings `state` down to a bare 1 wakes the caller.
  struct Join {
    const std::function<void(size_t)>* body;
    std::atomic<size_t> state{0};
    std::atomic<size_t> next{1};
  };
  const auto join = std::make_shared<Join>(&body);
  for (size_t h = 1; h < std::min(workers, size() + 1); ++h) {
    Submit([join] {
      if ((join->state.fetch_add(2) & 1) == 0) (*join->body)(join->next++);
      if (join->state.fetch_sub(2) == 3) join->state.notify_one();
    });
  }
  body(0);
  join->state.fetch_or(1);
  for (size_t s; (s = join->state.load()) != 1;) join->state.wait(s);
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn) {
  // Every body, the caller's included, claims the next unclaimed index.
  std::atomic<size_t> next{begin};
  Fork(end > begin ? end - begin : 0, [&](size_t) {
    for (size_t i = next++; i < end; i = next++) fn(i);
  });
}

ThreadPool& ThreadPool::Process() {
  // Leaked on purpose: a helper may still sit in its queue at exit.
  static ThreadPool* const pool = new ThreadPool(HardwareConcurrency());
  return *pool;
}

size_t ThreadPool::HardwareConcurrency() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&mask)));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void Fork(size_t workers, const std::function<void(size_t)>& body) {
  if (workers > 1) return ThreadPool::Process().Fork(workers, body);
  body(0);
}

void ForkEach(size_t workers, size_t count,
              const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  Fork(std::min(workers, count), [&](size_t) {
    for (size_t i = next++; i < count; i = next++) fn(i);
  });
}

}  // namespace hydra::util
