#include "exec/thread_pool.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "obs/metrics.h"

namespace bix::exec {

namespace {

// Tasks of the current batch not yet claimed by any lane.  Monitoring-grade:
// concurrent relaxed stores may briefly read stale, but it always converges
// to 0 when the pool is idle.
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "thread_pool.compute_queue_depth");
  return g;
}

}  // namespace

void ThreadPool::Batch::Drain(int lane) {
  obs::ProfAdopt adopt(prof);
  size_t completed = 0;
  std::exception_ptr first_error;
  while (true) {
    size_t task = next_task.fetch_add(1, std::memory_order_relaxed);
    if (task >= num_tasks) break;
    QueueDepthGauge().Set(static_cast<int64_t>(num_tasks - task - 1));
    try {
      (*fn)(task, lane);
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
    ++completed;
  }
  if (first_error != nullptr) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (error == nullptr) error = first_error;
  }
  // Release order so the submitter's acquire load of done_tasks observes all
  // task side effects before ParallelFor returns.
  done_tasks.fetch_add(completed, std::memory_order_release);
}

ThreadPool::ThreadPool(int num_workers) {
  BIX_CHECK(num_workers >= 0);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (batch_ != nullptr && generation_ != seen_generation);
    });
    if (shutdown_) return;
    seen_generation = generation_;
    std::shared_ptr<Batch> batch = batch_;
    lock.unlock();
    // Claim a lane; workers beyond the batch's lane budget go back to sleep.
    int lane = 1 + batch->joined.fetch_add(1, std::memory_order_relaxed);
    bool finished = false;
    if (lane <= batch->max_lanes) {
      batch->Drain(lane);
      finished = batch->done_tasks.load(std::memory_order_acquire) ==
                 batch->num_tasks;
    }
    lock.lock();
    // Notify under mu_ so the submitter cannot miss the wakeup between its
    // predicate check and blocking on done_cv_.
    if (finished) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(size_t num_tasks, int max_workers,
                             const std::function<void(size_t, int)>& fn) {
  if (num_tasks == 0) return;
  max_workers = std::min(max_workers, num_workers());
  if (max_workers <= 0 || num_tasks == 1) {
    for (size_t task = 0; task < num_tasks; ++task) fn(task, 0);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->num_tasks = num_tasks;
  batch->max_lanes = max_workers;
  batch->prof = obs::Profiler::CurrentHandle();
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = batch;
    ++generation_;
  }
  work_cv_.notify_all();

  // The submitting thread works too (lane 0), then waits for stragglers.
  batch->Drain(0);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return batch->done_tasks.load(std::memory_order_acquire) ==
             batch->num_tasks;
    });
    batch_.reset();
  }
  QueueDepthGauge().Set(0);
  if (batch->error != nullptr) std::rethrow_exception(batch->error);
}

ThreadPool& SharedPool(int min_workers) {
  static std::mutex mu;
  static std::unique_ptr<ThreadPool> pool;
  std::lock_guard<std::mutex> lock(mu);
  if (pool == nullptr || pool->num_workers() < min_workers) {
    pool = std::make_unique<ThreadPool>(min_workers);
  }
  return *pool;
}

}  // namespace bix::exec
