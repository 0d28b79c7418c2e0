// The Section 1 plan study: P1/P2/P3 produce identical foundsets, the
// byte-cost accounting matches the paper's model, and the planner's choice
// tracks predicate selectivity (index merges win at high selectivity
// factors, scans win when almost everything qualifies).

#include <vector>

#include <gtest/gtest.h>

#include "baseline/scan.h"
#include "core/advisor.h"
#include "core/eval.h"
#include "plan/selection_plan.h"
#include "workload/generators.h"

namespace bix {
namespace {

Table MakeTable(size_t rows) {
  Table table(rows);
  int quantity = table.AddColumn("quantity", GenerateUniform(rows, 50, 1), 50);
  int discount = table.AddColumn("discount", GenerateUniform(rows, 11, 2), 11);
  int shipdate =
      table.AddColumn("shipdate", GenerateUniform(rows, 2406, 3), 2406);
  table.BuildBitmapIndex(quantity, KneeBase(50));
  table.BuildBitmapIndex(discount, BaseSequence::SingleComponent(11));
  table.BuildRidIndex(shipdate);
  return table;
}

Bitvector Oracle(const Table& table, const ConjunctiveQuery& query) {
  Bitvector out = Bitvector::Ones(table.num_rows());
  for (const Predicate& pred : query) {
    out.AndWith(ScanEvaluate(table.column(pred.attribute), pred.op, pred.v));
  }
  return out;
}

TEST(SelectionPlanTest, AllPlansAgreeOnTheFoundset) {
  Table table = MakeTable(5000);
  const ConjunctiveQuery queries[] = {
      {{0, CompareOp::kLe, 9}},
      {{0, CompareOp::kLe, 9}, {2, CompareOp::kGe, 2000}},
      {{0, CompareOp::kEq, 7}, {1, CompareOp::kGt, 5}},
      {{0, CompareOp::kGe, 45},
       {1, CompareOp::kNe, 3},
       {2, CompareOp::kLt, 1200}},
  };
  SelectionPlanner planner(table);
  for (const ConjunctiveQuery& query : queries) {
    Bitvector expected = Oracle(table, query);
    for (const PlanEstimate& plan : planner.EnumeratePlans(query)) {
      ExecutionResult result = planner.Execute(query, plan);
      EXPECT_EQ(result.foundset, expected) << ToString(plan.kind);
      EXPECT_GT(result.bytes_read, 0) << ToString(plan.kind);
    }
  }
}

// P3 over a relation spanning three full replay segments and a partial
// one: each bitmap probe replays across segment seams and the tail, and the
// merge's cost is the sum of its probes' bitmap and RID reads, no tuples.
TEST(SelectionPlanTest, IndexMergeAcrossReplaySegmentsMatchesOracle) {
  const size_t rows = 3 * (size_t{1} << kSegmentBits) + 37;
  Table table = MakeTable(rows);
  const ConjunctiveQuery queries[] = {
      {{0, CompareOp::kLe, 9}, {1, CompareOp::kGt, 5}},
      {{0, CompareOp::kGe, 45},
       {1, CompareOp::kNe, 3},
       {2, CompareOp::kLt, 1200}},
  };
  SelectionPlanner planner(table);
  const PlanEstimate merge{PlanKind::kIndexMerge, -1, 0};
  for (const ConjunctiveQuery& query : queries) {
    ExecutionResult result = planner.Execute(query, merge);
    EXPECT_EQ(result.foundset, Oracle(table, query));
    EXPECT_EQ(result.tuples_read, 0);
    EXPECT_GT(result.bitmap_scans, 0);
    EXPECT_EQ(result.bytes_read, result.bitmap_scans *
                                         static_cast<int64_t>((rows + 7) / 8) +
                                     4 * result.rids_read);
  }
}

TEST(SelectionPlanTest, FullScanCostsTheWholeRelation) {
  Table table = MakeTable(3000);
  SelectionPlanner planner(table);
  ConjunctiveQuery query = {{0, CompareOp::kLe, 20}};
  ExecutionResult result =
      planner.Execute(query, PlanEstimate{PlanKind::kFullScan, -1, 0});
  EXPECT_EQ(result.tuples_read, 3000);
  EXPECT_EQ(result.bytes_read, 3000 * table.tuple_bytes());
}

TEST(SelectionPlanTest, IndexMergeReadsOnlyBitmaps) {
  Table table = MakeTable(4096);
  SelectionPlanner planner(table);
  ConjunctiveQuery query = {{0, CompareOp::kLe, 9}, {1, CompareOp::kGe, 8}};
  ExecutionResult result =
      planner.Execute(query, PlanEstimate{PlanKind::kIndexMerge, -1, 0});
  EXPECT_EQ(result.tuples_read, 0);
  EXPECT_GT(result.bitmap_scans, 0);
  EXPECT_EQ(result.bytes_read, result.bitmap_scans * 4096 / 8);
}

TEST(SelectionPlanTest, IndexFilterTouchesOnlyCandidates) {
  Table table = MakeTable(8000);
  SelectionPlanner planner(table);
  ConjunctiveQuery query = {{0, CompareOp::kEq, 3}, {1, CompareOp::kLe, 4}};
  PlanEstimate plan{PlanKind::kIndexFilter, 0, 0};
  ExecutionResult result = planner.Execute(query, plan);
  // Only the ~1/50 of rows matching the driver are materialized.
  EXPECT_LT(result.tuples_read, 8000 / 20);
  EXPECT_EQ(result.foundset, Oracle(table, query));
}

TEST(SelectionPlanTest, PlannerPrefersIndexMergeForSelectiveConjunctions) {
  Table table = MakeTable(100000);
  SelectionPlanner planner(table);
  // The paper's headline DSS case: moderate-selectivity range predicates
  // with large foundsets, where any tuple-touching plan loses to bitmaps.
  ConjunctiveQuery dss = {{0, CompareOp::kLe, 24}, {1, CompareOp::kLe, 5}};
  EXPECT_EQ(planner.Choose(dss).kind, PlanKind::kIndexMerge);
  // An extremely selective driver with a cheap partial scan can still make
  // P2 competitive; the planner must at least avoid the full scan.
  ConjunctiveQuery pointy = {{0, CompareOp::kEq, 3}, {1, CompareOp::kEq, 7}};
  EXPECT_NE(planner.Choose(pointy).kind, PlanKind::kFullScan);
}

TEST(SelectionPlanTest, PlannerFallsBackToScanWithoutIndexes) {
  Table table(1000);
  table.AddColumn("plain", GenerateUniform(1000, 20, 4), 20);
  SelectionPlanner planner(table);
  ConjunctiveQuery query = {{0, CompareOp::kLe, 10}};
  std::vector<PlanEstimate> plans = planner.EnumeratePlans(query);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].kind, PlanKind::kFullScan);
}

TEST(SelectionPlanTest, SingleSelectivePredicatePrefersItsIndex) {
  Table table = MakeTable(50000);
  SelectionPlanner planner(table);
  ConjunctiveQuery query = {{0, CompareOp::kEq, 12}};
  PlanEstimate best = planner.Choose(query);
  EXPECT_NE(best.kind, PlanKind::kFullScan);
}

TEST(SelectionPlanTest, SelectivityEstimates) {
  Table table(100);
  table.AddColumn("a", GenerateUniform(100, 10, 5), 10);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(table, {0, CompareOp::kLe, 4}), 0.5);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(table, {0, CompareOp::kEq, 4}), 0.1);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(table, {0, CompareOp::kLt, 0}), 0.0);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(table, {0, CompareOp::kGe, 0}), 1.0);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(table, {0, CompareOp::kNe, 3}), 0.9);
}

TEST(SelectionPlanTest, EstimatedBytesTrackActualForIndexMerge) {
  Table table = MakeTable(64000);
  SelectionPlanner planner(table);
  ConjunctiveQuery query = {{0, CompareOp::kLe, 24}, {1, CompareOp::kLe, 5}};
  std::vector<PlanEstimate> plans = planner.EnumeratePlans(query);
  for (const PlanEstimate& plan : plans) {
    if (plan.kind != PlanKind::kIndexMerge) continue;
    ExecutionResult result = planner.Execute(query, plan);
    EXPECT_EQ(static_cast<double>(result.bytes_read), plan.estimated_bytes);
  }
}

}  // namespace
}  // namespace bix
