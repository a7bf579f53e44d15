#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

namespace efficsense {

namespace {
thread_local ThreadPool* tl_current = nullptr;
}  // namespace

/// One parallel_for: an index range its caller and any joining workers
/// claim from. It lives on the caller's stack; the caller closes it (takes
/// it off the open list, so no worker joins any more) and waits until no
/// joined worker still holds it before returning.
struct ThreadPool::Job {
  Job(std::size_t n, const std::function<void(std::size_t)>& f)
      : count(n), fn(f) {}
  const std::size_t count;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};  ///< first unclaimed index
  std::size_t helpers = 0;           ///< workers inside; guarded by mutex_
  std::exception_ptr first_error;    ///< guarded by mutex_
  std::condition_variable left;      ///< signalled when helpers drops to 0

  bool has_unclaimed() const {
    return next.load(std::memory_order_relaxed) < count;
  }

  /// Claim and run indices until none is left; returns how many ran. A
  /// throwing index is recorded in first_error (under `mutex`) and the
  /// claiming goes on, so every index runs.
  std::size_t drain(std::mutex& mutex) {
    std::size_t ran = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return ran;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
      ++ran;
    }
  }
};

ThreadPool::ThreadPool(std::size_t n) {
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  workers_.reserve(n);
  worker_stats_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    worker_stats_.push_back(std::make_unique<WorkerStats>());
  }
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool* ThreadPool::current() { return tl_current; }

ThreadPool::Job* ThreadPool::joinable_job() const {
  for (Job* job : open_) {
    if (job->has_unclaimed()) return job;
  }
  return nullptr;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  using clock = std::chrono::steady_clock;
  tl_current = this;
  WorkerStats& stats = *worker_stats_[worker_index];
  std::unique_lock lock(mutex_);
  for (;;) {
    Job* job = nullptr;
    cv_.wait(lock, [&] {
      job = joinable_job();
      return stop_ || job != nullptr;
    });
    if (stop_) return;
    ++job->helpers;
    lock.unlock();

    busy_workers_.fetch_add(1, std::memory_order_relaxed);
    const auto start = clock::now();
    const std::size_t ran = job->drain(mutex_);
    const auto busy = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          clock::now() - start)
                          .count();
    stats.busy_ns.fetch_add(static_cast<std::uint64_t>(busy),
                            std::memory_order_relaxed);
    stats.tasks.fetch_add(ran, std::memory_order_relaxed);
    tasks_completed_.fetch_add(ran, std::memory_order_relaxed);
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);

    lock.lock();
    if (--job->helpers == 0) job->left.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  ThreadPool* const outer = tl_current;
  tl_current = this;
  Job job(count, fn);
  {
    std::lock_guard lock(mutex_);
    open_.push_back(&job);
    open_jobs_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_all();
  job.drain(mutex_);  // the calling thread participates too
  {
    std::unique_lock lock(mutex_);
    open_.erase(std::find(open_.begin(), open_.end(), &job));
    open_jobs_.fetch_sub(1, std::memory_order_relaxed);
    job.left.wait(lock, [&] { return job.helpers == 0; });
  }
  tl_current = outer;
  if (job.first_error) std::rethrow_exception(job.first_error);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.open_jobs = open_jobs();
  s.busy_workers = busy_workers();
  s.tasks_completed = tasks_completed_.load(std::memory_order_relaxed);
  s.worker_tasks.reserve(worker_stats_.size());
  s.worker_busy_s.reserve(worker_stats_.size());
  for (const auto& w : worker_stats_) {
    s.worker_tasks.push_back(w->tasks.load(std::memory_order_relaxed));
    s.worker_busy_s.push_back(
        static_cast<double>(w->busy_ns.load(std::memory_order_relaxed)) * 1e-9);
  }
  return s;
}

double ThreadPool::Stats::utilization(double wall_s) const {
  if (wall_s <= 0.0 || worker_busy_s.empty()) return 0.0;
  double busy = 0.0;
  for (double b : worker_busy_s) busy += b;
  return busy / (wall_s * static_cast<double>(worker_busy_s.size()));
}

ThreadPool::Stats ThreadPool::Stats::minus(const Stats& before) const {
  Stats d = *this;
  d.tasks_completed -= before.tasks_completed;
  for (std::size_t w = 0; w < d.worker_tasks.size() &&
                          w < before.worker_tasks.size();
       ++w) {
    d.worker_tasks[w] -= before.worker_tasks[w];
    d.worker_busy_s[w] -= before.worker_busy_s[w];
  }
  return d;
}

}  // namespace efficsense
