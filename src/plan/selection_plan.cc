#include "plan/selection_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "bitmap/bitvector_kernels.h"
#include "core/check.h"
#include "core/cost_model.h"
#include "exec/segmented_eval.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace bix {

namespace {

int64_t BitmapBytes(size_t num_rows) {
  return static_cast<int64_t>((num_rows + 7) / 8);
}

bool HasIndex(const Table& table, int attribute) {
  return table.bitmap_index(attribute) != nullptr ||
         table.rid_index(attribute) != nullptr;
}

// Expected bytes for probing one predicate through the attribute's index.
double EstimateProbeBytes(const Table& table, const Predicate& pred) {
  const BitmapIndex* bitmap = table.bitmap_index(pred.attribute);
  if (bitmap != nullptr) {
    int64_t scans = ModelScans(bitmap->base(), bitmap->cardinality(),
                               bitmap->encoding(), EvalAlgorithm::kAuto,
                               pred.op, pred.v);
    return static_cast<double>(scans * BitmapBytes(table.num_rows()));
  }
  // RID-list probe: 4 bytes per qualifying record.
  return EstimateSelectivity(table, pred) *
         static_cast<double>(table.num_rows()) * 4.0;
}

}  // namespace

std::string_view ToString(PlanKind kind) {
  switch (kind) {
    case PlanKind::kFullScan: return "P1-full-scan";
    case PlanKind::kIndexFilter: return "P2-index-filter";
    case PlanKind::kIndexMerge: return "P3-index-merge";
  }
  return "?";
}

double EstimateSelectivity(const Table& table, const Predicate& pred) {
  double c = static_cast<double>(table.cardinality(pred.attribute));
  double v = static_cast<double>(pred.v);
  double qualifying;
  switch (pred.op) {
    case CompareOp::kLt: qualifying = v; break;
    case CompareOp::kLe: qualifying = v + 1; break;
    case CompareOp::kGt: qualifying = c - 1 - v; break;
    case CompareOp::kGe: qualifying = c - v; break;
    case CompareOp::kEq: qualifying = pred.v >= 0 && v < c ? 1 : 0; break;
    case CompareOp::kNe: qualifying = pred.v >= 0 && v < c ? c - 1 : c; break;
    default: qualifying = c;
  }
  return std::clamp(qualifying / c, 0.0, 1.0);
}

std::vector<PlanEstimate> SelectionPlanner::EnumeratePlans(
    const ConjunctiveQuery& query) const {
  BIX_CHECK(!query.empty());
  std::vector<PlanEstimate> plans;

  // P1: always applicable.
  plans.push_back(PlanEstimate{
      PlanKind::kFullScan, -1,
      static_cast<double>(table_.num_rows()) *
          static_cast<double>(table_.tuple_bytes())});

  // P2: any indexed predicate can drive; the planner picks the one with
  // minimal probe + partial-scan bytes.
  double best_p2 = std::numeric_limits<double>::infinity();
  int best_driver = -1;
  for (size_t i = 0; i < query.size(); ++i) {
    const Predicate& pred = query[i];
    if (!HasIndex(table_, pred.attribute)) continue;
    double bytes = EstimateProbeBytes(table_, pred);
    if (query.size() > 1) {
      bytes += EstimateSelectivity(table_, pred) *
               static_cast<double>(table_.num_rows()) *
               static_cast<double>(table_.tuple_bytes());
    }
    if (bytes < best_p2) {
      best_p2 = bytes;
      best_driver = pred.attribute;
    }
  }
  if (best_driver >= 0) {
    plans.push_back(PlanEstimate{PlanKind::kIndexFilter, best_driver,
                                 best_p2});
  }

  // P3: applicable when every predicate is indexed.
  bool all_indexed = true;
  double p3_bytes = 0;
  for (const Predicate& pred : query) {
    if (!HasIndex(table_, pred.attribute)) {
      all_indexed = false;
      break;
    }
    p3_bytes += EstimateProbeBytes(table_, pred);
  }
  if (all_indexed) {
    plans.push_back(PlanEstimate{PlanKind::kIndexMerge, -1, p3_bytes});
  }

  std::sort(plans.begin(), plans.end(),
            [](const PlanEstimate& a, const PlanEstimate& b) {
              return a.estimated_bytes < b.estimated_bytes;
            });
  return plans;
}

PlanEstimate SelectionPlanner::Choose(const ConjunctiveQuery& query) const {
  return EnumeratePlans(query).front();
}

Bitvector SelectionPlanner::IndexProbe(const Predicate& pred,
                                       const ExecOptions& exec,
                                       ExecutionResult* result) const {
  const BitmapIndex* bitmap = table_.bitmap_index(pred.attribute);
  if (bitmap != nullptr) {
    EvalStats stats;
    Bitvector found = EvaluatePredicate(*bitmap, EvalAlgorithm::kAuto,
                                        pred.op, pred.v, exec, &stats);
    result->bitmap_scans += stats.bitmap_scans;
    result->bytes_read += stats.bitmap_scans * BitmapBytes(table_.num_rows());
    return found;
  }
  const RidListIndex* rid = table_.rid_index(pred.attribute);
  BIX_CHECK_MSG(rid != nullptr, "index plan over an unindexed attribute");
  int64_t rids_scanned = 0;
  std::vector<uint32_t> rids = rid->Evaluate(pred.op, pred.v, &rids_scanned);
  result->rids_read += rids_scanned;
  result->bytes_read += 4 * rids_scanned;
  Bitvector found(table_.num_rows());
  for (uint32_t r : rids) found.Set(r);
  return found;
}

ExecutionResult SelectionPlanner::ExecuteFullScan(
    const ConjunctiveQuery& query) const {
  ExecutionResult result;
  result.foundset = Bitvector(table_.num_rows());
  for (size_t r = 0; r < table_.num_rows(); ++r) {
    bool qualifies = true;
    for (const Predicate& pred : query) {
      uint32_t value = table_.column(pred.attribute)[r];
      if (value == kNullValue ||
          !EvalScalar(static_cast<int64_t>(value), pred.op, pred.v)) {
        qualifies = false;
        break;
      }
    }
    if (qualifies) result.foundset.Set(r);
  }
  result.tuples_read = static_cast<int64_t>(table_.num_rows());
  result.bytes_read = result.tuples_read * table_.tuple_bytes();
  return result;
}

ExecutionResult SelectionPlanner::ExecuteIndexFilter(
    const ConjunctiveQuery& query, int driver) const {
  ExecutionResult result;
  const Predicate* driver_pred = nullptr;
  for (const Predicate& pred : query) {
    if (pred.attribute == driver) {
      driver_pred = &pred;
      break;
    }
  }
  BIX_CHECK_MSG(driver_pred != nullptr, "P2 driver not in the query");
  Bitvector candidates = IndexProbe(*driver_pred, ExecOptions{}, &result);

  result.foundset = Bitvector(table_.num_rows());
  candidates.ForEachSetBit([&](size_t r) {
    ++result.tuples_read;
    for (const Predicate& pred : query) {
      uint32_t value = table_.column(pred.attribute)[r];
      if (value == kNullValue ||
          !EvalScalar(static_cast<int64_t>(value), pred.op, pred.v)) {
        return;
      }
    }
    result.foundset.Set(r);
  });
  result.bytes_read += result.tuples_read * table_.tuple_bytes();
  return result;
}

ExecutionResult SelectionPlanner::ExecuteIndexMerge(
    const ConjunctiveQuery& query) const {
  ExecutionResult result;
  std::vector<Bitvector> foundsets;
  foundsets.reserve(query.size());
  for (const Predicate& pred : query) {
    std::string prof_name;
    if (obs::Profiler::enabled()) {
      prof_name = "probe a" + std::to_string(pred.attribute);
    }
    obs::ProfSpan prof_span("plan", prof_name);
    foundsets.push_back(IndexProbe(pred, exec_options_, &result));
  }
  // Conjunction via the fused k-ary AND: one blocked pass over all
  // foundsets instead of a pairwise fold.
  result.foundset = AndOfMany(foundsets);
  return result;
}

ExecutionResult SelectionPlanner::Execute(const ConjunctiveQuery& query,
                                          const PlanEstimate& plan) const {
  obs::TraceSpan span("plan", ToString(plan.kind).data());
  span.set_value(static_cast<int64_t>(plan.estimated_bytes));
  obs::ProfSpan prof("plan", ToString(plan.kind));

  ExecutionResult result;
  switch (plan.kind) {
    case PlanKind::kFullScan:
      result = ExecuteFullScan(query);
      break;
    case PlanKind::kIndexFilter:
      result = ExecuteIndexFilter(query, plan.driver_attribute);
      break;
    case PlanKind::kIndexMerge:
      result = ExecuteIndexMerge(query);
      break;
  }
  span.set_bytes(result.bytes_read);

  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& executions = reg.GetCounter("plan.executions");
  static obs::Counter& bytes = reg.GetCounter("plan.bytes_read");
  static obs::Histogram& drift = reg.GetHistogram("plan.abs_bytes_drift");
  executions.Increment();
  bytes.Increment(result.bytes_read);
  drift.Observe(static_cast<int64_t>(
      std::abs(static_cast<double>(result.bytes_read) - plan.estimated_bytes)));
  return result;
}

PlanExplain SelectionPlanner::Explain(const ConjunctiveQuery& query,
                                      bool execute_all) const {
  PlanExplain explain;
  for (const PlanEstimate& estimate : EnumeratePlans(query)) {
    PlanAudit audit;
    audit.estimate = estimate;
    explain.plans.push_back(std::move(audit));
  }
  explain.chosen = 0;
  for (size_t i = 0; i < explain.plans.size(); ++i) {
    if (i == explain.chosen || execute_all) {
      explain.plans[i].actual = Execute(query, explain.plans[i].estimate);
      explain.plans[i].executed = true;
    }
  }
  return explain;
}

std::string PlanExplain::ToText() const {
  std::ostringstream out;
  out << "plan                driver  est_bytes     act_bytes     drift\n";
  for (size_t i = 0; i < plans.size(); ++i) {
    const PlanAudit& p = plans[i];
    char line[160];
    if (p.executed) {
      std::snprintf(line, sizeof(line), "%-19s %6d  %12.0f  %12lld  %+.0f%s\n",
                    std::string(ToString(p.estimate.kind)).c_str(),
                    p.estimate.driver_attribute, p.estimate.estimated_bytes,
                    static_cast<long long>(p.actual.bytes_read),
                    p.bytes_drift(), i == chosen ? "  <-- chosen" : "");
    } else {
      std::snprintf(line, sizeof(line), "%-19s %6d  %12.0f  %12s  %s\n",
                    std::string(ToString(p.estimate.kind)).c_str(),
                    p.estimate.driver_attribute, p.estimate.estimated_bytes,
                    "-", i == chosen ? "  <-- chosen" : "");
    }
    out << line;
  }
  return out.str();
}

}  // namespace bix
