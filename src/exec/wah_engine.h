// Compressed-domain execution engine over WAH bitvectors (EngineKind::kAuto).
//
// The second backend for the shared algorithm templates in
// core/eval_algorithms.h, next to the dense recording engine whose programs
// core/eval.cc replays segment-at-a-time.  Operands are fetched through
// BitmapSource::FetchWah; one is kept WAH-compressed iff its WAH form is at
// most 1/32 of its dense form, and is otherwise dense on use: it stays code
// words until its first dense use (an AND/XOR/NOT, a copy, or the final
// dense result), where it inflates once.  The rule depends on the operand
// alone: no timing, no process-wide state.  A source that stores dense
// bitmaps hands out dense operands, which are never compressed on fetch.
//
// Compressed x compressed AND/OR/XOR and NOT run run-at-a-time on the code
// words; operations touching a dense or dense-on-use operand run on dense
// words.  EqualityEval's k-ary OR-sides fold every operand still in code
// words (kept or dense on use) into one dense accumulator without inflating
// it (bitmap/wah_kernels.h), OR any dense operands into it, and keep going
// on dense words.
//
// Results are bit-identical to the dense engine and EvalStats are equal by
// construction: the templates count operations (OpCounter) and both FetchWah
// and Fetch count the same one bitmap scan.  The wah_engine.* metrics record
// how many operations actually ran compressed vs on dense words
// (compressed_ops / plain_ops; a k-ary OR over code words counts as
// compressed) and how many operands were inflated to dense words, each
// counted at its first dense use (inflated_operands).

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

/// Evaluates `A op v` on the compressed substrate with the same
/// trace/metrics envelope as the other entry points.  Bit-identical to the
/// dense path, including EvalStats.
Bitvector EvaluatePredicateCompressed(const BitmapSource& source,
                                      EvalAlgorithm algorithm, CompareOp op,
                                      int64_t v, EvalStats* stats = nullptr);

/// Same evaluation, handed back WAH-compressed: a result the engine holds
/// dense (an operand was inflated or stored dense, or a k-ary OR ran) is
/// compressed once here.  `engine` must be kAuto.  For callers that keep
/// going in the compressed domain; callers that want the foundset itself
/// should use EvaluatePredicateCompressed, which never converts a dense
/// result.
WahBitvector EvaluateToWah(const BitmapSource& source, EvalAlgorithm algorithm,
                           CompareOp op, int64_t v, EngineKind engine,
                           EvalStats* stats = nullptr);

}  // namespace bix::exec

#endif  // BIX_EXEC_WAH_ENGINE_H_
