// Fixed-size worker pool and the process's one fork-join primitive.
// Deliberately work-stealing-free: one shared FIFO task queue feeds N
// workers. Every parallel loop of the library (a query's scan, the shard
// fan-out, a batch) joins through Fork on the one process pool, so no
// query creates a thread; only the serve daemon keeps a pool of its own.
#ifndef HYDRA_UTIL_THREAD_POOL_H_
#define HYDRA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hydra::util {

/// Fixed pool of `threads` workers draining one shared task queue.
///
/// Thread safety: Submit, Fork and ParallelFor may be called from any
/// thread, a worker of this pool included: Fork waits only on helpers that
/// are already running, so a nested call cannot deadlock. The destructor
/// drains the queue before joining, so every submitted task runs exactly
/// once.
class ThreadPool {
 public:
  /// Starts `threads` workers (must be >= 1).
  explicit ThreadPool(size_t threads);

  /// Drains the queue, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

  /// Enqueues one task. Tasks must not throw (hydra is no-exceptions on
  /// hot paths; invariant violations abort via HYDRA_CHECK).
  void Submit(std::function<void()> task);

  /// The nestable join. The caller runs `body(0)`; at most
  /// min(workers - 1, size()) helper tasks are queued, and each one that
  /// starts while `body(0)` runs calls `body(w)` with its own w in
  /// [1, workers). A helper that starts after `body(0)` returned does
  /// nothing. The caller then waits only for helpers already inside
  /// `body`, and while it waits it never runs another queued task: an
  /// unrelated task would re-enter the caller's thread_local scratch
  /// (see "Threading model" in docs/ARCHITECTURE.md). So a body may run on
  /// fewer threads than `workers`, and must split its work off a shared
  /// cursor rather than by w.
  void Fork(size_t workers, const std::function<void(size_t)>& body);

  /// Runs `fn(i)` for every i in [begin, end): the caller and the helpers
  /// of one Fork grab the next unclaimed index until the range is done,
  /// and the call returns when every index has completed. `fn` must be
  /// safe to call concurrently from `size() + 1` threads; it receives
  /// each index exactly once, but in no guaranteed order — callers that
  /// need ordered output should write to slot i of a pre-sized array.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

  /// The process pool, HardwareConcurrency() workers, created on first
  /// use and never destroyed. Call it only for a width > 1 (the free
  /// Fork/ForkEach below do), so a serial process never starts it.
  static ThreadPool& Process();

  /// The number of CPUs this thread may run on (its affinity mask), else
  /// std::thread::hardware_concurrency, with a floor of 1.
  static size_t HardwareConcurrency();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// ThreadPool::Fork on the process pool; `workers <= 1` runs `body(0)`
/// inline and never creates the pool.
void Fork(size_t workers, const std::function<void(size_t)>& body);

/// Runs `fn(i)` for every i in [0, count) over a Fork of
/// min(workers, count) on the process pool, each body claiming the next
/// unclaimed index. At width 1 this is the plain loop, in order.
void ForkEach(size_t workers, size_t count,
              const std::function<void(size_t)>& fn);

}  // namespace hydra::util

#endif  // HYDRA_UTIL_THREAD_POOL_H_
