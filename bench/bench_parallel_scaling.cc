// Wall-clock scaling of dense record-and-replay evaluation across lanes
// (exec/segmented_eval.h) on a large range query.  Engineering companion to
// the paper's CPU-time discussion: lanes reassociate the same word
// operations, so scans/ops stay exactly the closed-form counts while the
// wall clock divides across threads.
//
// Every lane count's result is verified against the scan oracle, its scans
// against the cost model's closed form (ModelScans), and its EvalStats
// against the one-lane run's: the bench aborts on any divergence, so a
// passing run doubles as a large-N correctness check.  Speedups are
// relative to one lane and hardware-dependent (a single-core host reports
// ~1x throughout); the verification must hold everywhere.
//
// Usage: bench_parallel_scaling [--smoke] [OUT.json]
//   --smoke   1M rows instead of 10M (registered with ctest)
//   OUT.json  result rows in the shared BENCH json schema
//             (default BENCH_parallel_scaling.json)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baseline/scan.h"
#include "bench_json.h"
#include "core/advisor.h"
#include "core/bitmap_index.h"
#include "core/cost_model.h"
#include "core/eval.h"
#include "exec/segmented_eval.h"
#include "workload/generators.h"

using namespace bix;

namespace {

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

template <typename Fn>
double TimeMs(const Fn& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  return 1e3 * std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_parallel_scaling.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const size_t n = smoke ? 1000000 : 10000000;
  const int reps = smoke ? 3 : 5;
  const uint32_t c = 1000;
  const BaseSequence base = KneeBase(c);
  const CompareOp op = CompareOp::kLe;
  const int64_t v = c / 2;

  std::printf("Parallel scaling: range query A <= %lld, knee index %s, "
              "C = %u, N = %zu%s\n\n",
              static_cast<long long>(v), base.ToString().c_str(), c, n,
              smoke ? "  [smoke]" : "");

  std::vector<uint32_t> column = GenerateUniform(n, c, 7);
  BitmapIndex index = BitmapIndex::Build(column, c, base, Encoding::kRange);

  const Bitvector expected = ScanEvaluate(column, op, v);
  const int64_t model_scans = ModelScans(base, c, Encoding::kRange,
                                         EvalAlgorithm::kRangeEvalOpt, op, v);

  std::printf("%10s | %12s %10s | %s\n", "threads", "ms/query", "speedup",
              "verified");

  bench::BenchJsonWriter json;
  auto params_with_threads = [&](int threads) {
    return std::vector<bench::BenchParam>{
        {"rows", n},
        {"cardinality", static_cast<int64_t>(c)},
        {"smoke", static_cast<int64_t>(smoke ? 1 : 0)},
        {"threads", static_cast<int64_t>(threads)}};
  };

  // Untimed warm-up, so the first lane count timed does not also pay the
  // first touch of the index and the allocator.
  EvaluatePredicate(index, EvalAlgorithm::kRangeEvalOpt, op, v);

  double one_lane_ms = 0;
  EvalStats one_lane_stats;
  for (int threads : {1, 2, 4, 8}) {
    ExecOptions options;
    options.num_threads = threads;
    std::vector<double> samples;
    bool identical = true;
    bool stats_equal = true;
    for (int r = 0; r < reps; ++r) {
      EvalStats stats;
      Bitvector got;
      samples.push_back(TimeMs([&] {
        got = EvaluatePredicate(index, EvalAlgorithm::kRangeEvalOpt, op, v,
                                options, &stats);
      }));
      if (threads == 1 && r == 0) one_lane_stats = stats;
      identical = identical && got == expected;
      stats_equal = stats_equal && stats == one_lane_stats &&
                    stats.bitmap_scans == model_scans;
    }
    const double ms = MedianMs(samples);
    if (threads == 1) one_lane_ms = ms;
    const double speedup = ms > 0 ? one_lane_ms / ms : 0;
    std::printf("%10d | %12.2f %9.2fx | %s\n", threads, ms, speedup,
                identical && stats_equal
                    ? "matches scan oracle, stats equal"
                    : (identical ? "STATS DRIFT" : "RESULT MISMATCH"));
    if (!identical || !stats_equal) {
      std::fprintf(stderr, "bench_parallel_scaling: verification FAILED at "
                           "%d threads\n", threads);
      return 1;
    }
    json.Add("parallel_scaling", params_with_threads(threads), "latency_ms",
             ms, "ms");
    json.Add("parallel_scaling", params_with_threads(threads), "speedup",
             speedup, "x");
  }

  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "bench_parallel_scaling: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("\n%zu rows -> %s\n", json.size(), out_path.c_str());
  std::printf("shape check: speedup approaches the hardware thread count on "
              "multi-core hosts (1x on one core); verification holds "
              "everywhere.\n");
  return 0;
}
