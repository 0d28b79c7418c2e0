// ThreadPool semantics (task coverage, lane budget, exception policy,
// reuse, concurrent submitters) and bit-exactness of dense record and
// replay against the scan oracle across the query space, over one segment
// and several, with scans equal to the cost model's closed form.

#include <atomic>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/scan.h"
#include "core/bitmap_index.h"
#include "core/compressed_source.h"
#include "core/cost_model.h"
#include "core/eval.h"
#include "exec/segmented_eval.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "workload/queries.h"

#include "param_names.h"

namespace bix {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  exec::ThreadPool pool(3);
  constexpr size_t kTasks = 1000;
  std::vector<std::atomic<int>> runs(kTasks);
  pool.ParallelFor(kTasks, 3, [&](size_t task, int) {
    runs[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, LanesStayWithinBudget) {
  exec::ThreadPool pool(4);
  constexpr int kMaxLanes = 2;  // caller plus at most two pool workers
  std::atomic<int> out_of_range{0};
  pool.ParallelFor(256, kMaxLanes, [&](size_t, int lane) {
    if (lane < 0 || lane > kMaxLanes) out_of_range.fetch_add(1);
  });
  EXPECT_EQ(out_of_range.load(), 0);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineOnCaller) {
  exec::ThreadPool pool(0);
  const std::thread::id self = std::this_thread::get_id();
  size_t ran = 0;
  pool.ParallelFor(10, 4, [&](size_t, int lane) {
    EXPECT_EQ(lane, 0);
    EXPECT_EQ(std::this_thread::get_id(), self);
    ++ran;
  });
  EXPECT_EQ(ran, 10u);
}

TEST(ThreadPoolTest, RethrowsFirstErrorAndStaysUsable) {
  exec::ThreadPool pool(2);
  std::atomic<size_t> attempted{0};
  EXPECT_THROW(
      pool.ParallelFor(100, 2,
                       [&](size_t task, int) {
                         attempted.fetch_add(1, std::memory_order_relaxed);
                         if (task % 10 == 3) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  EXPECT_EQ(attempted.load(), 100u)
      << "a throwing task must not cancel its siblings";

  std::atomic<size_t> ran{0};
  pool.ParallelFor(50, 2,
                   [&](size_t, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 50u) << "pool unusable after an exception";
}

TEST(ThreadPoolTest, BackToBackBatchesReuseWorkers) {
  exec::ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    const size_t tasks = 1 + static_cast<size_t>(round % 7);
    std::atomic<size_t> ran{0};
    pool.ParallelFor(tasks, 3, [&](size_t, int) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), tasks) << "round " << round;
  }
}

TEST(ThreadPoolTest, ConcurrentSubmittersSerialize) {
  exec::ThreadPool pool(2);
  std::atomic<size_t> total{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int round = 0; round < 25; ++round) {
        pool.ParallelFor(8, 2, [&](size_t, int) { total.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(total.load(), 4u * 25u * 8u);
}

TEST(ThreadPoolTest, SharedPoolGrowsAndNeverShrinks) {
  EXPECT_GE(exec::SharedPool(2).num_workers(), 2);
  EXPECT_GE(exec::SharedPool(5).num_workers(), 5);
  EXPECT_GE(exec::SharedPool(1).num_workers(), 5);
}

// ---------------------------------------------------------------------------
// Record and replay across segments

// Rows per replay segment (core/eval.h's kSegmentBits).
constexpr size_t kSegmentRows = size_t{1} << kSegmentBits;

struct ExecSweepCase {
  std::vector<uint32_t> bases_msb;
  uint32_t cardinality;
  size_t num_rows;  // chosen to exercise exact-multiple and tail segments
  bool with_nulls;
};

std::string CaseName(const ExecSweepCase& c) {
  return test::DesignName(c.bases_msb, c.cardinality) + "N" +
         std::to_string(c.num_rows) + (c.with_nulls ? "Nulls" : "");
}
void PrintTo(const ExecSweepCase& c, std::ostream* os) { *os << CaseName(c); }

std::vector<uint32_t> MakeColumn(uint32_t cardinality, size_t n,
                                 bool with_nulls, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    if (with_nulls && rng() % 10 == 0) {
      values[i] = kNullValue;
    } else {
      values[i] = static_cast<uint32_t>(rng() % cardinality);
    }
  }
  return values;
}

// The full 6 x C query space for small domains; for large C a boundary
// sample (component digit edges) plus out-of-domain constants.
std::vector<Query> QueriesFor(uint32_t cardinality) {
  if (cardinality <= 16) {
    std::vector<Query> queries = AllSelectionQueries(cardinality);
    for (CompareOp op : kAllCompareOps) {
      queries.push_back(Query{op, -1});
      queries.push_back(Query{op, static_cast<int64_t>(cardinality)});
    }
    return queries;
  }
  std::vector<Query> queries;
  const int64_t c = static_cast<int64_t>(cardinality);
  for (CompareOp op : kAllCompareOps) {
    for (int64_t v : {int64_t{-1}, int64_t{0}, int64_t{1}, c / 36, c / 2,
                      c - 2, c - 1, c, 5 * c}) {
      queries.push_back(Query{op, v});
    }
  }
  return queries;
}

class SegmentedSweepTest : public ::testing::TestWithParam<ExecSweepCase> {};

TEST_P(SegmentedSweepTest, MatchesScanOracleWithModelScans) {
  const ExecSweepCase& c = GetParam();
  std::vector<uint32_t> values = MakeColumn(c.cardinality, c.num_rows,
                                            c.with_nulls, 77 + c.cardinality);
  BaseSequence base = BaseSequence::FromMsbFirst(c.bases_msb);
  ASSERT_TRUE(base.IsWellDefinedFor(c.cardinality));

  struct AlgUnderTest {
    Encoding encoding;
    EvalAlgorithm algorithm;
  };
  const AlgUnderTest algs[] = {
      {Encoding::kRange, EvalAlgorithm::kRangeEval},
      {Encoding::kRange, EvalAlgorithm::kRangeEvalOpt},
      {Encoding::kRange, EvalAlgorithm::kAuto},
      {Encoding::kEquality, EvalAlgorithm::kEqualityEval},
      {Encoding::kEquality, EvalAlgorithm::kAuto},
  };

  for (Encoding enc : {Encoding::kRange, Encoding::kEquality}) {
    BitmapIndex index =
        BitmapIndex::Build(values, c.cardinality, base, enc);
    for (const AlgUnderTest& alg : algs) {
      if (alg.encoding != enc) continue;
      for (const Query& q : QueriesFor(c.cardinality)) {
        const Bitvector expected = ScanEvaluate(values, q.op, q.v);
        EvalStats stats;
        Bitvector result =
            EvaluatePredicate(index, alg.algorithm, q.op, q.v, &stats);
        ASSERT_EQ(result, expected)
            << "base=" << base.ToString() << " alg=" << ToString(alg.algorithm)
            << " op=" << ToString(q.op) << " v=" << q.v;
        ASSERT_EQ(stats.bitmap_scans,
                  ModelScans(base, c.cardinality, enc, alg.algorithm, q.op,
                             q.v))
            << "scans drift from the model: base=" << base.ToString()
            << " alg=" << ToString(alg.algorithm) << " op=" << ToString(q.op)
            << " v=" << q.v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, SegmentedSweepTest,
    ::testing::Values(
        // Single partial segment, partial final word.
        ExecSweepCase{{7}, 7, 100, true},
        // Exact multiple of three segments: no tail word at all.
        ExecSweepCase{{3, 3}, 9, 3 * kSegmentRows, false},
        // Three full segments, then a tail segment ending in a partial word.
        ExecSweepCase{{3, 3}, 9, 3 * kSegmentRows + 37, true},
        // A tail segment of whole words only.
        ExecSweepCase{{3, 3}, 9, 3 * kSegmentRows + 64, true},
        // Bit-sliced with nulls.
        ExecSweepCase{{2, 2, 2, 2}, 13, 3 * kSegmentRows + 37, true},
        // The paper's knee base and Section 3 example, larger domain.
        ExecSweepCase{{28, 36}, 1000, 3 * kSegmentRows + 37, true},
        ExecSweepCase{{10, 10, 10}, 1000, 3 * kSegmentRows + 37, false}),
    test::ParamName<ExecSweepCase>);

TEST(SegmentedEvalTest, RecordedProgramIsReusable) {
  std::vector<uint32_t> values =
      MakeColumn(9, 3 * kSegmentRows + 37, true, 5);
  BaseSequence base = BaseSequence::FromMsbFirst({3, 3});
  BitmapIndex index = BitmapIndex::Build(values, 9, base, Encoding::kRange);

  EvalStats eval_stats;
  Bitvector expected = EvaluatePredicate(index, EvalAlgorithm::kRangeEvalOpt,
                                         CompareOp::kLe, 4, &eval_stats);
  ASSERT_EQ(expected, ScanEvaluate(values, CompareOp::kLe, 4));

  EvalStats rec_stats;
  EvalProgram program = RecordEvalProgram(
      index, EvalAlgorithm::kRangeEvalOpt, CompareOp::kLe, 4, &rec_stats);
  EXPECT_EQ(rec_stats, eval_stats) << "recording must count like evaluation";

  // Replaying charges nothing further and is repeatable.
  EXPECT_EQ(ReplayProgram(program), expected);
  EXPECT_EQ(ReplayProgram(program), expected);
  EXPECT_EQ(rec_stats, eval_stats);
}

TEST(SegmentedEvalTest, TrivialResultsNeedNoInstructions) {
  std::vector<uint32_t> values = MakeColumn(9, 1000, true, 6);
  BaseSequence base = BaseSequence::FromMsbFirst({3, 3});
  BitmapIndex index = BitmapIndex::Build(values, 9, base, Encoding::kRange);

  // v out of domain: `A > 100` matches nothing, `A <= 100` matches all
  // non-null rows — both resolve without fetching a single bitmap.
  for (auto [op, v] : {std::pair{CompareOp::kGt, int64_t{100}},
                       std::pair{CompareOp::kLe, int64_t{100}}}) {
    EvalStats stats;
    EvalProgram program = RecordEvalProgram(
        index, EvalAlgorithm::kRangeEvalOpt, op, v, &stats);
    EXPECT_EQ(stats.bitmap_scans, 0);
    EXPECT_EQ(ReplayProgram(program), ScanEvaluate(values, op, v));
  }
}

// Every algorithm ends by ANDing with an operand whose tail is clear (B_nn),
// which would hide a dirty tail left behind by NOT or ONES.  These programs
// end on those instructions, so the replay kernel's tail mask is checked
// directly, across segment seams.
TEST(SegmentedEvalTest, NotAndOnesKeepTheTailClear) {
  using Op = EvalInstr::Op;
  const size_t rows = 3 * kSegmentRows + 37;
  Bitvector input(rows);
  for (size_t r = 0; r < rows; r += 3) input.Set(r);
  Bitvector negated = input;
  negated.NotInPlace();

  EvalProgram not_program;
  not_program.num_bits = rows;
  not_program.inputs = {&input};
  not_program.instrs = {{Op::kLoad, 0, 0, true}, {Op::kNot, 0}};
  not_program.result_reg = 0;
  not_program.num_regs = 1;
  EvalProgram ones_program;
  ones_program.num_bits = rows;
  ones_program.instrs = {{Op::kOnes, 0}};
  ones_program.result_reg = 0;
  ones_program.num_regs = 1;

  EXPECT_EQ(ReplayProgram(not_program), negated);
  EXPECT_EQ(ReplayProgram(ones_program), Bitvector::Ones(rows));
}

// ---------------------------------------------------------------------------
// kAuto keep rule (exec/wah_engine.cc)

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

// The wah_engine.* deltas one kAuto `A = v` query causes.
struct EngineDeltas {
  int64_t compressed_ops = 0;
  int64_t plain_ops = 0;
  int64_t inflated_operands = 0;
  bool operator==(const EngineDeltas&) const = default;
};

EngineDeltas RunAutoEquality(const BitmapSource& source, int64_t v) {
  const int64_t c0 = CounterValue("wah_engine.compressed_ops");
  const int64_t p0 = CounterValue("wah_engine.plain_ops");
  const int64_t i0 = CounterValue("wah_engine.inflated_operands");
  Bitvector got = EvaluatePredicate(source, EvalAlgorithm::kEqualityEval,
                                    CompareOp::kEq, v,
                                    ExecOptions{.engine = EngineKind::kAuto});
  EXPECT_EQ(got, EvaluatePredicate(source, EvalAlgorithm::kEqualityEval,
                                   CompareOp::kEq, v))
      << "v=" << v;
  return {CounterValue("wah_engine.compressed_ops") - c0,
          CounterValue("wah_engine.plain_ops") - p0,
          CounterValue("wah_engine.inflated_operands") - i0};
}

// kAuto keeps an operand compressed iff its WAH form is at most 1/32 of its
// dense form, whatever ran before in the process: hundreds of timed
// compressed and dense operations must not move the decision.
TEST(WahAutoKeepRuleTest, DecisionDoesNotDependOnHistory) {
  // Value 1 sits in one row of every 16th 31-bit group and value 2 in one
  // row of every 128th; every other row holds 0 and none is NULL, so B_nn
  // is a single ones fill and `A = v` is Fetch(B_v) AND B_nn.
  constexpr size_t kGroups = 4096;
  std::vector<uint32_t> values(31 * kGroups, 0);
  for (size_t g = 0; g < kGroups; g += 16) values[31 * g + 5] = 1;
  for (size_t g = 8; g < kGroups; g += 128) values[31 * g + 17] = 2;
  BitmapIndex index = BitmapIndex::Build(
      values, 3, BaseSequence::FromMsbFirst({3}), Encoding::kEquality);
  WahCompressedSource source(index);

  const double dense_bytes = static_cast<double>((values.size() + 63) / 64 * 8);
  auto wah_fraction = [&](uint32_t slot) {
    return static_cast<double>(
               WahBitvector::FromBitvector(index.Fetch(0, slot, nullptr))
                   .SizeInBytes()) /
           dense_bytes;
  };
  ASSERT_GT(wah_fraction(1), 0.05);
  ASSERT_LT(wah_fraction(1), 0.20);
  ASSERT_LE(wah_fraction(2), 0.03);

  // B_1 (~13% of dense) is inflated and its AND runs on dense words; B_2
  // (~1.6%) stays compressed and so does its AND.
  const EngineDeltas mid = RunAutoEquality(source, 1);
  const EngineDeltas sparse = RunAutoEquality(source, 2);
  EXPECT_GT(mid.inflated_operands, 0);
  EXPECT_EQ(mid.compressed_ops, 0);
  EXPECT_EQ(sparse.inflated_operands, 0);
  EXPECT_EQ(sparse.plain_ops, 0);
  EXPECT_GT(sparse.compressed_ops, 0);

  // More than 512 compressed and 512 dense binary operations: B_2's AND on
  // `source`, and the AND of a noisy index's bitmaps, whose WAH form is no
  // smaller than dense, on `noisy`.
  BitmapIndex noisy_index =
      BitmapIndex::Build(MakeColumn(3, values.size(), false, 20261018), 3,
                         BaseSequence::FromMsbFirst({3}), Encoding::kEquality);
  WahCompressedSource noisy(noisy_index);
  const int64_t c0 = CounterValue("wah_engine.compressed_ops");
  const int64_t p0 = CounterValue("wah_engine.plain_ops");
  for (int i = 0; i < 600; ++i) {
    RunAutoEquality(noisy, 0);
    RunAutoEquality(source, 2);
  }
  ASSERT_GE(CounterValue("wah_engine.compressed_ops") - c0, 600);
  ASSERT_GE(CounterValue("wah_engine.plain_ops") - p0, 600);

  EXPECT_EQ(RunAutoEquality(source, 1), mid);
  EXPECT_EQ(RunAutoEquality(source, 2), sparse);
}

// The rule's edge: an operand whose WAH form is exactly 1/32 of its dense
// form stays compressed, and one code word more inflates it.
TEST(WahAutoKeepRuleTest, KeepsAtExactlyOneThirtySecond) {
  // 4096 31-bit groups are 126976 rows, 1984 dense words or 15872 bytes, so
  // the rule keeps at most 124 WAH words.  Value 1 sits in group 0 and every
  // 64th group after it: 62 literals, 61 fills between them and a trailing
  // fill make 124 words.  Value 2 sits 32 groups further into each stride,
  // which adds a leading fill: 125 words.
  constexpr size_t kGroups = 4096;
  std::vector<uint32_t> values(31 * kGroups, 0);
  for (size_t j = 0; j < 62; ++j) {
    values[31 * (64 * j) + 3] = 1;
    values[31 * (64 * j + 32) + 11] = 2;
  }
  BitmapIndex index = BitmapIndex::Build(
      values, 3, BaseSequence::FromMsbFirst({3}), Encoding::kEquality);
  WahCompressedSource source(index);

  ASSERT_EQ(values.size() % 64, 0u);
  const size_t dense_bytes = values.size() / 64 * 8;
  auto wah_bytes = [&](uint32_t slot) {
    return WahBitvector::FromBitvector(index.Fetch(0, slot, nullptr))
        .SizeInBytes();
  };
  ASSERT_EQ(wah_bytes(1) * 32, dense_bytes);
  ASSERT_EQ(wah_bytes(2), wah_bytes(1) + sizeof(uint32_t));

  const EngineDeltas at_edge = RunAutoEquality(source, 1);
  EXPECT_EQ(at_edge.inflated_operands, 0);
  EXPECT_EQ(at_edge.plain_ops, 0);
  EXPECT_GT(at_edge.compressed_ops, 0);
  const EngineDeltas past_edge = RunAutoEquality(source, 2);
  EXPECT_GT(past_edge.inflated_operands, 0);
  EXPECT_EQ(past_edge.compressed_ops, 0);
}

// Whichever way the rule decides, kAuto returns the plain path's result:
// every operator and constant over a clustered column, whose bitmaps
// compress to a few fills and stay compressed, and a noisy one, whose
// bitmaps do not compress and are inflated, in both encodings.
TEST(WahAutoKeepRuleTest, MatchesPlainOnClusteredAndNoisySources) {
  constexpr size_t kRows = 6000;
  std::vector<uint32_t> clustered(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    clustered[i] = static_cast<uint32_t>(i / (kRows / 9 + 1));
  }
  const std::vector<uint32_t> noisy = MakeColumn(9, kRows, true, 20261019);

  const int64_t c0 = CounterValue("wah_engine.compressed_ops");
  const int64_t i0 = CounterValue("wah_engine.inflated_operands");
  const std::vector<uint32_t>* const columns[] = {&clustered, &noisy};
  for (const std::vector<uint32_t>* values : columns) {
    for (Encoding enc : {Encoding::kEquality, Encoding::kRange}) {
      BitmapIndex index = BitmapIndex::Build(
          *values, 9, BaseSequence::FromMsbFirst({3, 3}), enc);
      WahCompressedSource source(index);
      for (const Query& q : QueriesFor(9)) {
        Bitvector expected =
            EvaluatePredicate(index, EvalAlgorithm::kAuto, q.op, q.v);
        Bitvector got =
            EvaluatePredicate(source, EvalAlgorithm::kAuto, q.op, q.v,
                              ExecOptions{.engine = EngineKind::kAuto});
        ASSERT_EQ(got, expected)
            << (values == &clustered ? "clustered" : "noisy")
            << " enc=" << ToString(enc) << " op=" << ToString(q.op)
            << " v=" << q.v;
      }
    }
  }
  EXPECT_GT(CounterValue("wah_engine.compressed_ops") - c0, 0);
  EXPECT_GT(CounterValue("wah_engine.inflated_operands") - i0, 0);
}

// TSan target (scripts/check.sh --tsan runs *Segmented*): plain and kAuto
// queries on one shared compressed source from several threads at once, each
// replaying a multi-segment program on its own thread, must agree with the
// uncompressed result and be data-race-free.
TEST(WahAutoKeepRuleTest, SegmentedConcurrentQueriesAgree) {
  BitmapIndex index = BitmapIndex::Build(
      MakeColumn(9, 2 * kSegmentRows + 37, true, 20261020), 9,
      BaseSequence::FromMsbFirst({3, 3}), Encoding::kEquality);
  WahCompressedSource source(index);
  const Bitvector expected =
      EvaluatePredicate(index, EvalAlgorithm::kEqualityEval, CompareOp::kGe, 4);

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        const ExecOptions options{.engine = i % 2 == 0 ? EngineKind::kPlain
                                                       : EngineKind::kAuto};
        Bitvector got = EvaluatePredicate(
            source, EvalAlgorithm::kEqualityEval, CompareOp::kGe, 4, options);
        if (!(got == expected)) mismatch.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(mismatch.load());
}

// The ExecOptions overload is a dispatch on the engine: kPlain is core's
// one-lane replay, which counts no wah_engine.* operation, and kAuto is the
// compressed-domain engine, which does.  Both return the replay's result
// with equal EvalStats over a source spanning several replay segments.
TEST(SegmentedEvalTest, ExecOptionsDispatchOnTheEngine) {
  const std::vector<uint32_t> values =
      MakeColumn(9, 2 * kSegmentRows + 37, true, 20261021);
  BitmapIndex index = BitmapIndex::Build(
      values, 9, BaseSequence::FromMsbFirst({3, 3}), Encoding::kEquality);
  WahCompressedSource source(index);
  const Bitvector expected = ScanEvaluate(values, CompareOp::kGe, 4);
  EvalStats core_stats;
  ASSERT_EQ(EvaluatePredicate(source, EvalAlgorithm::kEqualityEval,
                              CompareOp::kGe, 4, &core_stats),
            expected);

  for (EngineKind engine : {EngineKind::kPlain, EngineKind::kAuto}) {
    const int64_t c0 = CounterValue("wah_engine.compressed_ops");
    const int64_t p0 = CounterValue("wah_engine.plain_ops");
    EvalStats stats;
    EXPECT_EQ(EvaluatePredicate(source, EvalAlgorithm::kEqualityEval,
                                CompareOp::kGe, 4,
                                ExecOptions{.engine = engine}, &stats),
              expected)
        << ToString(engine);
    EXPECT_EQ(stats, core_stats) << ToString(engine);
    const int64_t engine_ops = CounterValue("wah_engine.compressed_ops") -
                               c0 + CounterValue("wah_engine.plain_ops") - p0;
    if (engine == EngineKind::kPlain) {
      EXPECT_EQ(engine_ops, 0) << "kPlain ran the compressed-domain engine";
    } else {
      EXPECT_GT(engine_ops, 0) << "kAuto never reached the compressed engine";
    }
  }
}

TEST(ExecOptionsDeathTest, MoreThanOneThreadAborts) {
  BitmapIndex index = BitmapIndex::Build(MakeColumn(9, 100, false, 1), 9,
                                         BaseSequence::FromMsbFirst({3, 3}),
                                         Encoding::kRange);
  EXPECT_DEATH(EvaluatePredicate(index, EvalAlgorithm::kAuto, CompareOp::kLe,
                                 4, ExecOptions{.num_threads = 2}),
               "num_threads == 1");
}

// One lane is the only schedule: zero lanes is as invalid as two, for
// either engine.
TEST(ExecOptionsDeathTest, ZeroThreadsAborts) {
  BitmapIndex index = BitmapIndex::Build(MakeColumn(9, 100, false, 1), 9,
                                         BaseSequence::FromMsbFirst({3, 3}),
                                         Encoding::kRange);
  for (EngineKind engine : {EngineKind::kPlain, EngineKind::kAuto}) {
    EXPECT_DEATH(
        EvaluatePredicate(index, EvalAlgorithm::kAuto, CompareOp::kLe, 4,
                          ExecOptions{.num_threads = 0, .engine = engine}),
        "num_threads == 1")
        << ToString(engine);
  }
}

}  // namespace
}  // namespace bix
