// Fused multi-operand kernels over the WAH-compressed substrate — the
// compressed-domain mirror of bitmap/bitvector_kernels.h.
//
// The evaluation algorithms reduce to folds over k equal-length bitmaps
// (EqualityEval's OR-sides, the planner's P3 conjunction).  Folding
// compressed operands pairwise re-encodes k-1 intermediate results; the
// kernels here instead fold every operand's code words straight into one
// dense accumulator, with no per-operand Bitvector ever materialized.  Each
// operand takes one of two kernels, picked from its code-word count against
// the stream's group count (DESIGN.md §9):
//  * the stitch, a word at a time: identity fills (zeros for OR, ones for
//    AND) skip their whole words, dominant fills overwrite them with pure
//    stores, and literals shift through a carry buffer.  It serves AND, and
//    OR over near-all-fill and all-literal streams;
//  * the group-space OR fold, for streams that mix fills and literals: each
//    literal is ORed into its own 31-bit group slot of a per-thread scratch
//    in one branch-free pass, and the slots are packed to 64-bit words once,
//    64 groups (31 words) at a time, after the last operand.
// In bench_wah_merge the stitch beat the run-event heap merge it replaced
// in 17 of the 20 (shape, k) cells, and the group fold beats the stitch
// 1.7-4.5x on the fill/literal-mixed lanes.
//
// Contract: every k-ary entry point requires a non-empty operand span with
// equal sizes (BIX_CHECK).  The WAH-returning forms short-circuit k == 1 to
// a copy of the operand and otherwise compress the dense result once.
// Callers that can produce zero operands must handle that case themselves;
// the evaluation algorithms and the planner never do (their OR-sides and
// conjunctions are non-empty by construction).

#ifndef BIX_BITMAP_WAH_KERNELS_H_
#define BIX_BITMAP_WAH_KERNELS_H_

#include <span>

#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"

namespace bix {

/// OR / AND of `operands` (non-empty, equal sizes) as dense words — the form
/// the compressed-domain engine keeps going on.
Bitvector DenseOrOfMany(std::span<const WahBitvector* const> operands);
Bitvector DenseAndOfMany(std::span<const WahBitvector* const> operands);

/// OR / AND of `operands` (non-empty, equal sizes) as a WAH result; the
/// value-span form of WahBitvector::OrOfMany / AndOfMany.
WahBitvector OrOfMany(std::span<const WahBitvector> operands);
WahBitvector AndOfMany(std::span<const WahBitvector> operands);

}  // namespace bix

#endif  // BIX_BITMAP_WAH_KERNELS_H_
