// Predicate evaluation algorithms over encoded bitmap indexes (Section 3).
//
// Three algorithms are provided:
//  * RangeEval      — O'Neil & Quass's Algorithm 4.3 for range-encoded
//                     indexes, as reproduced in the paper's Figure 6 (left).
//                     It threads an equality bitmap B_EQ through every
//                     component and accumulates B_LT / B_GT sides.
//  * RangeEvalOpt   — the paper's improved algorithm (Figure 6, right).  It
//                     rewrites every range predicate in terms of `<=` alone
//                     using  A < v ≡ A <= v-1,  A > v ≡ ¬(A <= v),
//                     A >= v ≡ ¬(A <= v-1),  needing a single accumulator
//                     bitmap, ~50% fewer bitmap operations and one fewer
//                     bitmap scan per range predicate.
//  * EqualityEval   — evaluation over equality-encoded indexes.  The paper
//                     defers its listing to the technical report; this is
//                     the standard digit-recursive evaluation
//                     B = LT_i ∨ (EQ_i ∧ B) with complement-side
//                     optimization, so a range predicate costs between 1 and
//                     1 + floor((b_i-1)/2) scans per component, matching the
//                     bounds the paper states.
//
// All algorithms follow the published pseudocode literally (including
// operations whose operand happens to be all-ones) so that measured scan/op
// counts match the paper's analytic cost model exactly; see
// core/cost_model.h for the closed forms.
//
// Results are always masked with B_nn; NULL records never qualify.
//
// Bit r of a result refers to row r *of the source*: for an index built
// over row-reordered input that is a physical (build-order) position, not
// the caller's row id.  The storage/serve entry points remap sorted-index
// results to logical row ids before surfacing them (core/row_order.h);
// anything consuming these raw results with a sorted source must do the
// same.

#ifndef BIX_CORE_EVAL_H_
#define BIX_CORE_EVAL_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "bitmap/bitvector.h"
#include "core/bitmap_source.h"
#include "core/eval_stats.h"
#include "core/predicate.h"

namespace bix {

/// Which substrate the evaluation operators run on.
///  * kPlain — dense Bitvector words (the paper's model; decompress first if
///             the source stores compressed bitmaps).
///  * kAuto  — per-operand choice: an operand fetched via
///             BitmapSource::FetchWah stays compressed while its WAH form is
///             at most 1/32 of its dense form and runs run-at-a-time on the
///             code words; otherwise it is inflated once, at its first
///             dense use, and the op runs on words.  k-ary ORs fold every
///             operand from its code words (exec/wah_engine.h).
/// Both engines produce bit-identical results and identical EvalStats; the
/// choice only moves where the work happens.
enum class EngineKind : uint8_t { kPlain, kAuto };

const char* ToString(EngineKind kind);

/// Execution knobs for the evaluation engines (exec/segmented_eval.h
/// implements the overload of EvaluatePredicate that takes these).
/// `engine` selects the operator substrate.  Both engines run on the calling
/// thread; results are bit-identical and EvalStats equal under either, since
/// compressed execution moves the work without reordering the algorithm.
/// `num_threads` must be 1 (anything else aborts).  It remains only because
/// perfbench still assigns it, and goes when perfbench stops doing so
/// (ROADMAP item 1, "Lanes inside a query").
struct ExecOptions {
  int num_threads = 1;
  EngineKind engine = EngineKind::kPlain;
};

/// Evaluates `A op v` over `source` with the given algorithm (kAuto picks
/// RangeEvalOpt or EqualityEval by the source's encoding).  Aborts if the
/// algorithm does not match the encoding.  `v` may be any integer; values
/// outside [0, C) yield the trivial result.  Runs on the calling thread by
/// record and replay (below).
Bitvector EvaluatePredicate(const BitmapSource& source,
                            EvalAlgorithm algorithm, CompareOp op, int64_t v,
                            EvalStats* stats = nullptr);

/// The individual algorithms (exposed for targeted tests and benchmarks).
Bitvector RangeEval(const BitmapSource& source, CompareOp op, int64_t v,
                    EvalStats* stats = nullptr);
Bitvector RangeEvalOpt(const BitmapSource& source, CompareOp op, int64_t v,
                       EvalStats* stats = nullptr);
Bitvector EqualityEval(const BitmapSource& source, CompareOp op, int64_t v,
                       EvalStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Record and replay: how every dense evaluation runs.
//
// Realizing each bitmap operation as a full-length pass would stream 2N/8
// bytes through memory per operation.  Instead the algorithm is run once
// against a recording engine that captures its operation DAG into a small
// register program (no full-length work), and the program is then replayed
// segment-at-a-time: each 2^kSegmentBits-bit span of every operand runs the
// whole operator chain while it is L1/L2-resident.  The algorithm's control
// flow, fetch order and operation counts are those of the shared templates
// (core/eval_algorithms.h), so EvalStats and the cost-model audit hold
// exactly.  Recording costs one Fetch per scan: sources that can expose
// their storage (BitmapIndex) hand back zero-copy views via FetchView();
// others are fetched once into owned staging bitmaps.

/// log2 of the bits per replay segment: 8 KB spans, so one segment of every
/// register a program uses stays cache-resident.
inline constexpr uint32_t kSegmentBits = 16;

/// One instruction of a recorded evaluation program.  Register operands are
/// scratch-slot indexes after finalization; `src_is_input` marks `src` as an
/// index into EvalProgram::inputs instead.
struct EvalInstr {
  enum class Op : uint8_t {
    kLoad,   // dst = inputs[src]
    kZeros,  // dst = all-zero
    kOnes,   // dst = all-one (tail-masked)
    kMov,    // dst = register src
    kAnd,    // dst &= operand
    kOr,     // dst |= operand
    kXor,    // dst ^= operand
    kNot,    // dst = ~dst (tail-masked)
  };
  Op op;
  int32_t dst = -1;
  int32_t src = -1;
  bool src_is_input = false;
};

/// A recorded evaluation: the fetched operand bitmaps plus the finalized
/// (dead-code-eliminated, register-allocated) instruction list.  Valid while
/// the source it was recorded from is alive and unmodified.
struct EvalProgram {
  size_t num_bits = 0;
  std::vector<const Bitvector*> inputs;  // one entry per recorded operand
  std::deque<Bitvector> owned_inputs;    // staging for non-view sources
  std::vector<EvalInstr> instrs;
  int32_t result_reg = -1;    // scratch slot holding the result, or
  int32_t result_input = -1;  // input returned untouched (trivial results)
  int32_t num_regs = 0;       // scratch slots after finalization
};

/// Records `A op v` over `source` into a program without executing any
/// full-length bitmap work.  Scans and operations are counted into `stats`
/// exactly as evaluation counts them.  kAuto resolves as in
/// EvaluatePredicate.
EvalProgram RecordEvalProgram(const BitmapSource& source,
                              EvalAlgorithm algorithm, CompareOp op, int64_t v,
                              EvalStats* stats = nullptr);

/// Replays a recorded program segment-at-a-time, in order, on the calling
/// thread and returns its result.  Replaying charges no stats and may be
/// repeated.
Bitvector ReplayProgram(const EvalProgram& program);

namespace eval_internal {

/// Folds one evaluation's stats delta and latency into the process-wide
/// metrics registry (a handful of relaxed atomic adds per query).  Shared
/// with the compressed-domain engine (exec/wah_engine.cc) so both engines
/// feed the same eval.* metrics.
void RecordQueryMetrics(const EvalStats& delta, int64_t latency_ns);

}  // namespace eval_internal

}  // namespace bix

#endif  // BIX_CORE_EVAL_H_
