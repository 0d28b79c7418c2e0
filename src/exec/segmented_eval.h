// The EvaluatePredicate overload that takes ExecOptions.
//
// It dispatches on `options.engine`: kAuto runs the compressed-domain
// engine (exec/wah_engine.h); kPlain runs core's record and replay
// (core/eval.h) with its segments spread across `options.num_threads`
// lanes of the shared thread pool (exec/thread_pool.h).  Segments are independent spans of the same
// operator chain, so lanes reassociate the work without reordering the
// algorithm: results are bit-identical to one lane and EvalStats are equal.

#ifndef BIX_EXEC_SEGMENTED_EVAL_H_
#define BIX_EXEC_SEGMENTED_EVAL_H_

#include <cstdint>

#include "bitmap/bitvector.h"
#include "core/bitmap_source.h"
#include "core/eval.h"
#include "core/eval_stats.h"
#include "core/predicate.h"

namespace bix {

/// core/eval.h's EvaluatePredicate on the engine and lane count `options`
/// name: bit-identical result, identical EvalStats, same eval.* metrics
/// envelope.  Multi-lane runs set the exec.parallel_speedup gauge.
Bitvector EvaluatePredicate(const BitmapSource& source,
                            EvalAlgorithm algorithm, CompareOp op, int64_t v,
                            const ExecOptions& options,
                            EvalStats* stats = nullptr);

}  // namespace bix

#endif  // BIX_EXEC_SEGMENTED_EVAL_H_
