// Differential harness for the selection planner under both execution
// engines.  Under kAuto, P3's bitmap probes run through the compressed-domain
// engine and come back dense; the planner ANDs them with the same blocked
// dense kernel as plain execution.  The planner probes the table's
// in-memory dense bitmap index, which hands the engine dense operands, so
// no operand is kept compressed here: compressed operands reach P3 only
// once the planner can probe a stored, WAH-compressed index (ROADMAP item
// 3).  The three tables vary the probes: uniform columns, a
// lexicographically sorted table (long runs), and a table with one
// attribute indexed only by a RID list (RID probes never touch the engine,
// so each conjunction mixes both probe kinds).
//
// For each engine {plain, auto}, the P3 foundset and every plan
// Explain(execute_all) runs must equal the scan oracle, and each plan's
// cost accounting must equal the default plain engine's.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/scan.h"
#include "bitmap/bitvector.h"
#include "core/advisor.h"
#include "core/eval.h"
#include "obs/metrics.h"
#include "plan/selection_plan.h"
#include "plan/table.h"
#include "workload/generators.h"

namespace bix {
namespace {

constexpr size_t kRows = 4000;
constexpr uint32_t kCardinalities[] = {50, 11, 400};

enum class Shape { kUniform, kSorted, kRidMixed };

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kUniform: return "uniform";
    case Shape::kSorted: return "sorted";
    case Shape::kRidMixed: return "rid-mixed";
  }
  return "?";
}

// Three columns (quantity-, discount- and shipdate-shaped) with every 13th
// row NULL.  kSorted reorders whole rows lexicographically by (a0, a1, a2);
// kRidMixed indexes the last attribute with a RID list instead of bitmaps.
Table MakeTable(Shape shape, uint64_t seed) {
  std::vector<std::vector<uint32_t>> columns;
  for (size_t a = 0; a < 3; ++a) {
    columns.push_back(GenerateUniform(kRows, kCardinalities[a], seed + a));
    for (size_t r = a; r < kRows; r += 13) columns[a][r] = kNullValue;
  }
  if (shape == Shape::kSorted) {
    std::vector<size_t> order(kRows);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      for (const std::vector<uint32_t>& c : columns) {
        if (c[x] != c[y]) return c[x] < c[y];
      }
      return x < y;
    });
    for (std::vector<uint32_t>& c : columns) {
      std::vector<uint32_t> sorted(kRows);
      for (size_t r = 0; r < kRows; ++r) sorted[r] = c[order[r]];
      c = std::move(sorted);
    }
  }
  Table table(kRows);
  for (size_t a = 0; a < 3; ++a) {
    table.AddColumn("a" + std::to_string(a), std::move(columns[a]),
                    kCardinalities[a]);
  }
  table.BuildBitmapIndex(0, KneeBase(kCardinalities[0]));
  table.BuildBitmapIndex(1, BaseSequence::SingleComponent(kCardinalities[1]),
                         Encoding::kEquality);
  if (shape == Shape::kRidMixed) {
    table.BuildRidIndex(2);
  } else {
    table.BuildBitmapIndex(2, KneeBase(kCardinalities[2]));
  }
  return table;
}

// Seeded conjunctions of 1-4 predicates: every operator, constants from
// just below to just above the domain (trivial predicates evaluate to the
// engine's compressed all-zeros/all-ones operands), repeated attributes
// allowed (q6 puts two predicates on shipdate).
std::vector<ConjunctiveQuery> MakeQueries(uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  std::vector<ConjunctiveQuery> queries;
  for (int q = 0; q < count; ++q) {
    ConjunctiveQuery query;
    const size_t width = 1 + rng() % 4;
    for (size_t i = 0; i < width; ++i) {
      const int a = static_cast<int>(rng() % 3);
      const CompareOp op = kAllCompareOps[rng() % std::size(kAllCompareOps)];
      const int64_t v =
          static_cast<int64_t>(rng() % (kCardinalities[a] + 2)) - 1;
      query.push_back({a, op, v});
    }
    queries.push_back(std::move(query));
  }
  return queries;
}

Bitvector Oracle(const Table& table, const ConjunctiveQuery& query) {
  Bitvector out = Bitvector::Ones(table.num_rows());
  for (const Predicate& pred : query) {
    out.AndWith(ScanEvaluate(table.column(pred.attribute), pred.op, pred.v));
  }
  return out;
}

std::string Describe(const ConjunctiveQuery& query) {
  std::ostringstream os;
  for (const Predicate& p : query) {
    os << " a" << p.attribute << std::string(ToString(p.op)) << p.v;
  }
  return os.str();
}

void ExpectSameCost(const ExecutionResult& got, const ExecutionResult& want,
                    const std::string& ctx) {
  EXPECT_EQ(got.bytes_read, want.bytes_read) << ctx;
  EXPECT_EQ(got.bitmap_scans, want.bitmap_scans) << ctx;
  EXPECT_EQ(got.rids_read, want.rids_read) << ctx;
  EXPECT_EQ(got.tuples_read, want.tuples_read) << ctx;
}

void CheckEveryEngine(Shape shape) {
  const Table table = MakeTable(shape, 20261017);
  const std::vector<ConjunctiveQuery> queries = MakeQueries(4242, 60);
  const PlanEstimate merge{PlanKind::kIndexMerge, -1, 0};

  SelectionPlanner reference(table);  // default ExecOptions
  const obs::Counter& engine_ops =
      obs::MetricsRegistry::Global().GetCounter("wah_engine.plain_ops");
  const int64_t engine_ops_before = engine_ops.value();
  for (const ConjunctiveQuery& query : queries) {
    const Bitvector expected = Oracle(table, query);
    const ExecutionResult want = reference.Execute(query, merge);
    const PlanExplain want_explain = reference.Explain(query, true);

    for (EngineKind engine : {EngineKind::kPlain, EngineKind::kAuto}) {
      SelectionPlanner planner(table);
      planner.set_exec_options(ExecOptions{.engine = engine});
      const std::string ctx = std::string(ShapeName(shape)) + " engine=" +
                              std::string(ToString(engine)) +
                              " query:" + Describe(query);

      const ExecutionResult p3 = planner.Execute(query, merge);
      ASSERT_EQ(p3.foundset, expected) << "P3 " << ctx;
      ExpectSameCost(p3, want, "P3 " + ctx);

      const PlanExplain explain = planner.Explain(query, true);
      ASSERT_EQ(explain.plans.size(), want_explain.plans.size()) << ctx;
      for (size_t i = 0; i < explain.plans.size(); ++i) {
        const PlanAudit& got = explain.plans[i];
        const std::string plan_ctx =
            std::string(ToString(got.estimate.kind)) + " " + ctx;
        ASSERT_TRUE(got.executed) << plan_ctx;
        ASSERT_EQ(got.estimate.kind, want_explain.plans[i].estimate.kind)
            << plan_ctx;
        ASSERT_EQ(got.actual.foundset, expected) << plan_ctx;
        ExpectSameCost(got.actual, want_explain.plans[i].actual, plan_ctx);
      }
    }
  }
  // Only the compressed-domain engine counts wah_engine.* operations (the
  // plain engine's dense replay counts none), so this proves the kAuto
  // probes really ran through that backend.
  EXPECT_GT(engine_ops.value(), engine_ops_before) << ShapeName(shape);
}

TEST(PlannerEngineDifferential, UniformTable) {
  CheckEveryEngine(Shape::kUniform);
}

TEST(PlannerEngineDifferential, SortedTable) {
  CheckEveryEngine(Shape::kSorted);
}

TEST(PlannerEngineDifferential, RidIndexedAttributeMixesForms) {
  CheckEveryEngine(Shape::kRidMixed);
}

}  // namespace
}  // namespace bix
