#pragma once
// Fixed-size thread pool shared by every fan-out of a run: sweep points,
// Monte-Carlo lane groups, an evaluation's segments and a segment's decode
// windows. Each parallel_for opens one job (an index range); its caller
// drains the job itself, and a worker with nothing to do joins the oldest
// open job that still has unclaimed indices. So a fan-out nested inside a
// task (a straggler point's segments, say) spreads over the executors as
// they free up, while outer work keeps priority. ThreadPool::current()
// names the pool a thread is executing for, which is how nested code finds
// it without being handed a pointer.
//
// The pool keeps its own lock-free execution statistics (open jobs, busy
// workers, per-worker item counts and busy time). util/ sits below obs/ in
// the layering, so callers that want these in the metrics registry mirror
// them into gauges — core::record_pool_gauges does.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace efficsense {

class ThreadPool {
 public:
  /// n == 0 selects hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t n = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(i) for i in [0, count) across the pool and wait for completion.
  /// The caller runs indices too, then waits only for the ones other
  /// executors claimed; the job is closed when this returns. Reentrant: fn
  /// may call parallel_for on this pool. Exceptions from fn are captured;
  /// the first one is rethrown here once every index has run.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// The pool the calling thread executes for: set on the pool's workers,
  /// and on a caller for the duration of its parallel_for (restored after).
  /// Null on any other thread.
  static ThreadPool* current();

  /// Point-in-time execution statistics (all counters are cumulative).
  struct Stats {
    std::size_t open_jobs = 0;     ///< parallel_for calls in flight
    std::size_t busy_workers = 0;  ///< workers currently inside a job
    std::uint64_t tasks_completed = 0;  ///< indices run by workers
    std::vector<std::uint64_t> worker_tasks;  ///< per-worker indices run
    std::vector<double> worker_busy_s;        ///< per-worker time inside jobs
    /// Mean fraction of workers busy: busy time over worker count x
    /// wall_s. For a window, take it from the difference of two snapshots
    /// (minus()). 1.0 = perfectly utilized.
    double utilization(double wall_s) const;
    /// Counters accumulated since `before` (a snapshot of the same pool).
    Stats minus(const Stats& before) const;
  };
  Stats stats() const;
  std::size_t open_jobs() const {
    return open_jobs_.load(std::memory_order_relaxed);
  }
  std::size_t busy_workers() const {
    return busy_workers_.load(std::memory_order_relaxed);
  }

 private:
  struct Job;
  void worker_loop(std::size_t worker_index);
  /// The oldest open job with unclaimed indices, or null. Needs mutex_.
  Job* joinable_job() const;

  struct WorkerStats {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerStats>> worker_stats_;
  std::vector<Job*> open_;  ///< open jobs, oldest first; guarded by mutex_
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::size_t> open_jobs_{0};
  std::atomic<std::size_t> busy_workers_{0};
  std::atomic<std::uint64_t> tasks_completed_{0};
};

}  // namespace efficsense
