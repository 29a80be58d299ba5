// Fixed-size thread pool used by the parallel sweep runner. Simulations are
// independent, embarrassingly parallel tasks over immutable shared trace
// data, so a plain mutex-protected queue is enough — no work stealing.
//
// Concurrency discipline (CppCoreGuidelines CP.*): tasks capture either
// values or shared_ptr<const T>; each worker mutates only its own state. The
// pool joins all workers in the destructor so no task outlives the pool.
//
// Observability: every pool publishes to the global obs registry —
//   threadpool_tasks_total            tasks submitted
//   threadpool_queue_depth            currently queued (gauge)
//   threadpool_busy_seconds_total     summed task execution time (gauge);
//                                     utilization = busy / (wall × workers)
//   threadpool_task_wait_seconds      queue-wait distribution (log10 s)
//   threadpool_task_run_seconds       execution-time distribution (log10 s)
// Handles are resolved once at construction; the per-task cost is a few
// relaxed atomics and two clock reads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/registry.hpp"
#include "obs/timer.hpp"

namespace baps {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task and returns a future for its result. Exceptions thrown
  /// by the task propagate through the future.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::scoped_lock lock(mu_);
      queue_.push(Item{[task]() { (*task)(); }, obs::monotonic_seconds()});
    }
    tasks_total_->inc();
    queue_depth_->add(1.0);
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// Exceptions from tasks are rethrown (the first one encountered).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Item {
    std::function<void()> fn;
    double enqueued_at = 0.0;  ///< monotonic_seconds() at submit
  };

  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<Item> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  obs::Counter* tasks_total_;
  obs::Gauge* queue_depth_;
  obs::Gauge* busy_seconds_;
  obs::Histogram* wait_hist_;
  obs::Histogram* run_hist_;
};

}  // namespace baps
