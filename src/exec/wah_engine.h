// Compressed-domain execution engine over WAH bitvectors.
//
// The second backend for the shared algorithm templates in
// core/eval_algorithms.h, next to the dense recording engine whose programs
// core/eval.cc replays segment-at-a-time.  Operands are fetched through
// BitmapSource::FetchWah and stay WAH-compressed: each binary AND/OR/XOR
// and NOT runs run-at-a-time on the code words.
// EqualityEval's k-ary OR-sides stitch every compressed operand's code words
// into one dense accumulator (bitmap/wah_kernels.h), OR any dense operands
// into it, and keep going on dense words.
//
// EngineKind::kWah keeps every fetched operand compressed unconditionally;
// EngineKind::kAuto keeps one compressed iff its WAH form is at most 1/32
// of its dense form, and otherwise inflates it on fetch so its operations
// run on dense words.  The rule depends on the operand alone: no timing, no
// process-wide state.  Mixed compressed/dense operations densify on demand.
//
// Results are bit-identical to the dense engine and EvalStats are equal by
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
/// Bit-identical to the dense path, including EvalStats.
Bitvector EvaluatePredicateCompressed(const BitmapSource& source,
                                      EvalAlgorithm algorithm, CompareOp op,
                                      int64_t v, EngineKind engine,
                                      EvalStats* stats = nullptr);

/// Same evaluation, handed back WAH-compressed: a result the engine holds
/// dense (kAuto inflated an operand, or a k-ary OR ran) is compressed once
/// here.  For callers that keep going in the compressed domain; callers
/// that want the foundset itself should use EvaluatePredicateCompressed,
/// which never converts a dense result.
WahBitvector EvaluateToWah(const BitmapSource& source, EvalAlgorithm algorithm,
                           CompareOp op, int64_t v, EngineKind engine,
                           EvalStats* stats = nullptr);

}  // namespace bix::exec

#endif  // BIX_EXEC_WAH_ENGINE_H_
