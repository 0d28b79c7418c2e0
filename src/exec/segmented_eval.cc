#include "exec/segmented_eval.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>

#include "exec/thread_pool.h"
#include "exec/wah_engine.h"
#include "obs/metrics.h"

namespace bix {

namespace {

int64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Spreads core's segments across the caller plus `lanes - 1` pool workers
// and records the effective parallelism in hundredths (e.g. 380 = 3.80x):
// total busy time across lanes over wall-clock time.
void ScheduleOnPool(size_t num_segments, int lanes,
                    const std::function<void(size_t, int)>& segment) {
  static obs::Gauge& speedup_gauge =
      obs::MetricsRegistry::Global().GetGauge("exec.parallel_speedup");
  std::atomic<int64_t> busy_ns{0};
  const auto wall_start = std::chrono::steady_clock::now();
  exec::SharedPool(lanes - 1).ParallelFor(
      num_segments, lanes - 1, [&](size_t seg, int lane) {
        const auto seg_start = std::chrono::steady_clock::now();
        segment(seg, lane);
        busy_ns.fetch_add(ElapsedNs(seg_start), std::memory_order_relaxed);
      });
  const int64_t wall = std::max<int64_t>(1, ElapsedNs(wall_start));
  speedup_gauge.Set(100 * busy_ns.load(std::memory_order_relaxed) / wall);
}

}  // namespace

Bitvector EvaluatePredicate(const BitmapSource& source,
                            EvalAlgorithm algorithm, CompareOp op, int64_t v,
                            const ExecOptions& options, EvalStats* stats) {
  if (options.engine == EngineKind::kAuto) {
    // The compressed-domain engine is run-oriented, not segment-oriented;
    // the lane count does not apply.  Same results, same EvalStats.
    return exec::EvaluatePredicateCompressed(source, algorithm, op, v, stats);
  }
  return eval_internal::EvaluateDense(source, algorithm, op, v,
                                      options.num_threads, ScheduleOnPool,
                                      stats);
}

}  // namespace bix
