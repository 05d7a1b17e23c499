#include "util/thread_pool.h"

#include <atomic>
#include <latch>
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

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  // One stripe task per worker; each grabs the next unclaimed index until
  // the range is exhausted. Dynamic distribution keeps workers busy when
  // per-index costs vary (hard queries take longer than easy ones).
  const size_t stripes = std::min(size(), end - begin);
  std::atomic<size_t> next{begin};
  std::latch done(static_cast<ptrdiff_t>(stripes));
  for (size_t t = 0; t < stripes; ++t) {
    Submit([&next, &done, &fn, end] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < end;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
      done.count_down();
    });
  }
  done.wait();
}

size_t ThreadPool::HardwareConcurrency() {
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

}  // namespace hydra::util
