// The three conjunctive-selection plans of the paper's Section 1 and a
// byte-cost-based planner that chooses among them.
//
//  (P1) full relation scan;
//  (P2) index scan on the most selective predicate, then a partial relation
//       scan over the qualifying tuples to filter the remaining predicates;
//  (P3) one index scan per predicate, results merged (bitmap AND, or
//       RID-list intersection when using conventional indexes).
//
// The cost model follows the paper: a bitmap scan reads N/8 bytes, a
// RID-list entry 4 bytes, and a materialized tuple tuple_bytes(); plan
// choice uses estimated foundset sizes from a uniform-value assumption.
// The executor reports actual bytes so estimates can be audited.

#ifndef BIX_PLAN_SELECTION_PLAN_H_
#define BIX_PLAN_SELECTION_PLAN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "bitmap/bitvector.h"
#include "core/eval.h"
#include "core/predicate.h"
#include "plan/table.h"

namespace bix {

struct Predicate {
  int attribute;
  CompareOp op;
  int64_t v;
};

/// A conjunction of selection predicates over one table.
using ConjunctiveQuery = std::vector<Predicate>;

enum class PlanKind {
  kFullScan,        // P1
  kIndexFilter,     // P2
  kIndexMerge,      // P3
};

std::string_view ToString(PlanKind kind);

struct PlanEstimate {
  PlanKind kind = PlanKind::kFullScan;
  /// Attribute driving P2 (ignored for other plans).
  int driver_attribute = -1;
  /// Estimated bytes read under the paper's cost model.
  double estimated_bytes = 0;
};

struct ExecutionResult {
  Bitvector foundset;
  int64_t bytes_read = 0;    // actual bytes under the same cost model
  int64_t bitmap_scans = 0;  // bitmap fetches (P3 over bitmap indexes)
  int64_t rids_read = 0;     // RID entries read (P2/P3 over RID indexes)
  int64_t tuples_read = 0;   // tuples materialized from the relation
};

/// Uniform-assumption selectivity of `pred` on `table` in [0, 1].
double EstimateSelectivity(const Table& table, const Predicate& pred);

/// One plan's estimated cost paired with its measured execution — the
/// planner's cost model audited the same way obs/audit.h audits the
/// per-query scan model.
struct PlanAudit {
  PlanEstimate estimate;
  bool executed = false;
  ExecutionResult actual;  // meaningful only when `executed`

  /// actual - estimated bytes (positive: the model under-estimated).
  double bytes_drift() const {
    return static_cast<double>(actual.bytes_read) - estimate.estimated_bytes;
  }
};

/// EXPLAIN output: every applicable plan with estimates, the chosen one
/// executed (all of them under `execute_all`), cheapest estimate first.
struct PlanExplain {
  std::vector<PlanAudit> plans;
  size_t chosen = 0;  // index into `plans` (always 0 today; kept explicit)

  /// Multi-line EXPLAIN-style dump: one row per plan with kind, driver,
  /// estimated vs actual bytes and drift, marking the chosen plan.
  std::string ToText() const;
};

class SelectionPlanner {
 public:
  explicit SelectionPlanner(const Table& table) : table_(table) {}

  /// Execution knobs for P3's bitmap probes, which run one after another,
  /// each on the engine these name (exec/segmented_eval.h); the probed
  /// foundsets are combined with the fused k-ary AND kernel
  /// (Bitvector::AndOfMany).  The compressed engine hands back dense
  /// foundsets, and RID probes are dense either way.  P2 always probes with
  /// the defaults.  Foundsets and cost accounting are identical to default
  /// execution in every case.
  void set_exec_options(const ExecOptions& options) { exec_options_ = options; }
  const ExecOptions& exec_options() const { return exec_options_; }

  /// Cost estimates for every applicable plan, cheapest first.  P2/P3
  /// require the involved attributes to carry an index (bitmap or RID).
  std::vector<PlanEstimate> EnumeratePlans(const ConjunctiveQuery& query) const;

  /// The cheapest applicable plan.
  PlanEstimate Choose(const ConjunctiveQuery& query) const;

  /// Executes `plan` and returns the foundset with actual-cost accounting.
  ExecutionResult Execute(const ConjunctiveQuery& query,
                          const PlanEstimate& plan) const;

  /// Estimates every applicable plan and executes the chosen one (every
  /// candidate when `execute_all`), pairing estimated with actual bytes.
  PlanExplain Explain(const ConjunctiveQuery& query,
                      bool execute_all = false) const;

 private:
  ExecutionResult ExecuteFullScan(const ConjunctiveQuery& query) const;
  ExecutionResult ExecuteIndexFilter(const ConjunctiveQuery& query,
                                     int driver) const;
  ExecutionResult ExecuteIndexMerge(const ConjunctiveQuery& query) const;

  // Evaluates one predicate through the attribute's index (bitmap
  // preferred, RID fallback), charging bytes into `result`.  Bitmap probes
  // run as `exec` says; identical bits and cost accounting either way.
  Bitvector IndexProbe(const Predicate& pred, const ExecOptions& exec,
                       ExecutionResult* result) const;

  const Table& table_;
  ExecOptions exec_options_{};
};

}  // namespace bix

#endif  // BIX_PLAN_SELECTION_PLAN_H_
