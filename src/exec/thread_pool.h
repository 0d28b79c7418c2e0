// Fixed-size thread pool for the serve layer's lanes across queries
// (serve/service.h): each task is one whole query of a batch, and every
// query evaluates on the lane that claimed it.
//
// Deliberately work-stealing-free: tasks are claimed from a single atomic
// cursor, and a query never submits nested work, so a stealing deque would
// add complexity with nothing to steal.  One ParallelFor runs at a time
// (submissions serialize); the calling thread participates in the work
// rather than idling, so a `max_workers == 0` call degrades gracefully to an
// inline loop and a pool is never required for a one-lane run.
//
// Exception policy: a throwing task does not cancel its siblings — every
// task is always attempted exactly once (deterministic side effects) — and
// the first captured exception is rethrown on the calling thread after the
// batch completes.  The pool remains usable afterwards.

#ifndef BIX_EXEC_THREAD_POOL_H_
#define BIX_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/profile.h"

namespace bix::exec {

class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (>= 0; 0 is a valid inline-only
  /// pool).
  explicit ThreadPool(int num_workers);

  /// Joins all workers.  Must not run concurrently with ParallelFor.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs `fn(task, lane)` for every task in [0, num_tasks), claimed from a
  /// shared cursor by the calling thread (lane 0) and by up to `max_workers`
  /// pool workers (lanes 1..max_workers).  Lanes are dense and unique within
  /// one call, so `lane` can index per-lane scratch of size
  /// `min(max_workers, num_workers()) + 1`.  Blocks until every task has
  /// run, then rethrows the first exception any task threw.  Concurrent
  /// calls from different threads serialize; calling from inside a task of
  /// this pool is not supported.
  void ParallelFor(size_t num_tasks, int max_workers,
                   const std::function<void(size_t task, int lane)>& fn);

 private:
  // One submitted batch.  Workers keep a shared_ptr while draining, so a
  // straggler waking late can never touch state from a newer batch.
  struct Batch {
    const std::function<void(size_t, int)>* fn = nullptr;
    size_t num_tasks = 0;
    int max_lanes = 0;  // pool workers allowed to join (caller is extra)
    // Submitter's live profiler span: workers adopt it while draining, so
    // their counters attribute into the owning query's node.
    obs::ProfHandle prof;
    std::atomic<size_t> next_task{0};
    std::atomic<size_t> done_tasks{0};
    std::atomic<int> joined{0};
    std::mutex error_mu;
    std::exception_ptr error;

    // Claims tasks until the cursor is exhausted; records the first error.
    void Drain(int lane);
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;        // guarded by mu_
  uint64_t generation_ = 0;      // guarded by mu_; bumps once per batch
  std::shared_ptr<Batch> batch_;  // guarded by mu_; null when idle

  std::mutex submit_mu_;  // serializes ParallelFor calls
  std::vector<std::thread> workers_;
};

/// Process-wide pool behind the serve layer's lanes, resized upward on
/// demand (never shrunk).  Growing replaces the pool, so the returned
/// reference is valid only until a later call asks for more workers — use it
/// immediately rather than caching it.  Growing while another thread runs a
/// ParallelFor is not supported; the serve layer submits from the top level
/// of a batch, which serializes naturally.
ThreadPool& SharedPool(int min_workers);

}  // namespace bix::exec

#endif  // BIX_EXEC_THREAD_POOL_H_
