// Compressed-domain execution engine over WAH bitvectors.
//
// The third backend for the shared algorithm templates in
// core/eval_algorithms.h, next to the sequential dense engine (core/eval.cc)
// and the segmented recording engine (exec/segmented_eval.cc).  Operands are
// fetched through BitmapSource::FetchWah and stay WAH-compressed: each
// AND/OR/XOR/NOT runs run-at-a-time on the code words, and EqualityEval's
// k-ary OR-sides go through the fused WahBitvector::OrOfMany merge.  The
// dense form is materialized exactly once, for the final result.
//
// EngineKind::kWah keeps every operand compressed unconditionally;
// EngineKind::kAuto decides per operand by compression ratio — an operand
// whose WAH form is not markedly smaller than its dense form is inflated on
// fetch and its operations run on dense words (a dense bitmap's WAH form is
// ~3% *larger*, so compressed execution only wins where fills dominate).
// Mixed compressed/dense operations densify on demand.
//
// Results are bit-identical to the other engines and EvalStats are equal by
// construction: the templates count operations (OpCounter) and both FetchWah
// and Fetch count the same one bitmap scan.  The wah_engine.* metrics record
// how many operations actually ran compressed vs on dense words.

#ifndef BIX_EXEC_WAH_ENGINE_H_
#define BIX_EXEC_WAH_ENGINE_H_

#include <cstdint>

#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "core/bitmap_source.h"
#include "core/eval.h"
#include "core/eval_stats.h"
#include "core/predicate.h"

namespace bix::exec {

/// Evaluates `A op v` on the compressed substrate (`engine` must be kWah or
/// kAuto) with the same trace/metrics envelope as the other entry points.
/// Bit-identical to the sequential dense path, including EvalStats.
Bitvector EvaluatePredicateCompressed(const BitmapSource& source,
                                      EvalAlgorithm algorithm, CompareOp op,
                                      int64_t v, EngineKind engine,
                                      EvalStats* stats = nullptr);

/// Same evaluation, handed back WAH-compressed: a result the engine holds
/// dense (kAuto inflated an operand, or a k-ary merge fell back) is
/// compressed once here.  For callers that keep going in the compressed
/// domain; callers that want the foundset itself should use
/// EvaluatePredicateCompressed, which never converts a dense result.
WahBitvector EvaluateToWah(const BitmapSource& source, EvalAlgorithm algorithm,
                           CompareOp op, int64_t v, EngineKind engine,
                           EvalStats* stats = nullptr);

/// Derives the kAuto keep-compressed break-even ratio from the op-timing
/// samples the engine has accumulated (the first few hundred compressed and
/// dense binary ops are timed into the wah_engine.{compressed,plain}_op_ns
/// histograms and per-byte throughput accumulators).  A compressed op costs
/// time proportional to the operand's WAH size, a dense op to its dense
/// size, so an operand should stay compressed while
///   wah_bytes / dense_bytes  <=  dense_ns_per_byte / compressed_ns_per_byte
/// and that right-hand side — clamped to [1/32, 1/2] — is the installed
/// ratio.  With fewer than kMinCalibrationOps samples on either side the
/// built-in 1/4 stays in effect.  Publishes the effective ratio (permille)
/// to the wah_engine.calibrated_ratio gauge and returns it as a fraction.
///
/// Called at index open (StoredIndex::Open/Write, and lazily on engine
/// construction once enough samples exist); safe to call concurrently with
/// running queries — the ratio is a single relaxed atomic the engines read
/// per fetched operand.
double CalibrateAutoBreakEven();

/// Test hook: drops all timing samples and any installed calibrated ratio,
/// returning kAuto to the built-in 1/4 fallback.
void ResetAutoCalibrationForTest();

}  // namespace bix::exec

#endif  // BIX_EXEC_WAH_ENGINE_H_
