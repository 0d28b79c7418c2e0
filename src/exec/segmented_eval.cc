#include "exec/segmented_eval.h"

#include "core/check.h"
#include "exec/wah_engine.h"

namespace bix {

Bitvector EvaluatePredicate(const BitmapSource& source,
                            EvalAlgorithm algorithm, CompareOp op, int64_t v,
                            const ExecOptions& options, EvalStats* stats) {
  BIX_CHECK(options.num_threads == 1);
  if (options.engine == EngineKind::kAuto) {
    return exec::EvaluatePredicateCompressed(source, algorithm, op, v, stats);
  }
  return EvaluatePredicate(source, algorithm, op, v, stats);
}

}  // namespace bix
