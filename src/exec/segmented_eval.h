// The EvaluatePredicate overload that takes ExecOptions.
//
// It dispatches on `options.engine`: kAuto runs the compressed-domain
// engine (exec/wah_engine.h); kPlain runs core's record and replay
// (core/eval.h).  Both run on the calling thread and produce bit-identical
// results with equal EvalStats.

#ifndef BIX_EXEC_SEGMENTED_EVAL_H_
#define BIX_EXEC_SEGMENTED_EVAL_H_

#include <cstdint>

#include "bitmap/bitvector.h"
#include "core/bitmap_source.h"
#include "core/eval.h"
#include "core/eval_stats.h"
#include "core/predicate.h"

namespace bix {

/// core/eval.h's EvaluatePredicate on the engine `options` names:
/// bit-identical result, identical EvalStats, same eval.* metrics envelope.
/// Aborts unless `options.num_threads` is 1.
Bitvector EvaluatePredicate(const BitmapSource& source,
                            EvalAlgorithm algorithm, CompareOp op, int64_t v,
                            const ExecOptions& options,
                            EvalStats* stats = nullptr);

}  // namespace bix

#endif  // BIX_EXEC_SEGMENTED_EVAL_H_
