// Space-time cost model for bitmap indexes (paper Sections 4-5).
//
// Space(I) is the number of stored bitmaps; Time(I) is the expected number
// of bitmap scans for a query drawn uniformly from
//   Q = { A op v : op in {<, <=, >, >=, =, !=},  0 <= v < C }.
//
// Two levels of fidelity are provided:
//  * Analytic closed forms under the digit-uniform assumption (exact when
//    C equals the base sequence's capacity).  These are the formulas the
//    paper's theorems and algorithms rank candidate indexes with.  The
//    paper's equations (2), (4) and (6) are OCR-damaged in our source text;
//    the forms here are re-derived from the algorithms (see DESIGN.md §5)
//    and validated against exact enumeration in tests:
//      range encoding, RangeEval-Opt:
//        Time(I) = 2(n - sum_i 1/b_i) - (2/3)(1 - 1/b_1)
//      range encoding, RangeEval:
//        Time(I) = 2(n - sum_i 1/b_i)
//      equality encoding: per-digit expectations of EqualityEval (see .cc).
//  * Exact expectations computed by enumerating digit distributions over
//    [0, C) — O(sum b_i) per base sequence, no bitmaps materialized.  These
//    mirror the instrumented algorithms (core/eval_algorithms.h) bit for bit
//    (verified by property tests).

#ifndef BIX_CORE_COST_MODEL_H_
#define BIX_CORE_COST_MODEL_H_

#include <cstdint>

#include "core/base_sequence.h"
#include "core/predicate.h"

namespace bix {

/// The algorithm that runs for `algorithm` over an index of `encoding`:
/// kAuto picks RangeEvalOpt for range encoding and EqualityEval for equality
/// encoding.  Aborts if an explicit algorithm does not match the encoding.
EvalAlgorithm ResolveAlgorithm(Encoding encoding, EvalAlgorithm algorithm);

/// Space(I): number of stored bitmaps.  Range: sum(b_i - 1).  Equality:
/// sum(b_i) with base-2 components storing a single bitmap (Theorem 5.1).
int64_t SpaceInBitmaps(const BaseSequence& base, Encoding encoding);

/// Closed-form expected scans under the digit-uniform assumption.
/// `algorithm` must match the encoding (kAuto resolves as in eval.h).
double AnalyticTime(const BaseSequence& base, Encoding encoding,
                    EvalAlgorithm algorithm = EvalAlgorithm::kAuto);

/// Operator-class mix of a query workload.  The paper's uniform query
/// space Q has four range operators and two equality operators, i.e.
/// range_fraction = 2/3; a reporting workload dominated by interval
/// filters approaches 1, a key-lookup workload approaches 0.
struct WorkloadMix {
  double range_fraction = 2.0 / 3.0;

  static WorkloadMix Uniform() { return WorkloadMix{2.0 / 3.0}; }
  static WorkloadMix RangeOnly() { return WorkloadMix{1.0}; }
  static WorkloadMix EqualityOnly() { return WorkloadMix{0.0}; }
};

/// Closed-form expected scans under an arbitrary operator-class mix
/// (digit-uniform within each class).  With WorkloadMix::Uniform() this
/// equals AnalyticTime.  Extension beyond the paper's uniform-Q model.
double AnalyticTimeForMix(const BaseSequence& base, Encoding encoding,
                          const WorkloadMix& mix,
                          EvalAlgorithm algorithm = EvalAlgorithm::kAuto);

/// Exact expected scans over the 6C queries of Q for attribute
/// cardinality C.  Mirrors the instrumented algorithms.
double ExactTime(const BaseSequence& base, uint32_t cardinality,
                 Encoding encoding,
                 EvalAlgorithm algorithm = EvalAlgorithm::kAuto);

/// Scan count the model predicts for one query; equals the bitmap_scans the
/// instrumented implementation reports for the same query.
int64_t ModelScans(const BaseSequence& base, uint32_t cardinality,
                   Encoding encoding, EvalAlgorithm algorithm, CompareOp op,
                   int64_t v);

}  // namespace bix

#endif  // BIX_CORE_COST_MODEL_H_
