// The fused k-ary AND over the dense bitvector substrate.
//
// The selection planner's P3 conjoins its per-attribute foundsets.  Folding
// pairwise would stream the accumulator through memory k-1 times; the
// kernel instead makes one blocked pass, keeping an 8 KB accumulator window
// L1-resident while the k operand streams are each read once.
//
// The kernel is declared as a static member of Bitvector (it needs word
// access); this header adds the value-span convenience for callers that
// hold `std::vector<Bitvector>` rather than a pointer array.

#ifndef BIX_BITMAP_BITVECTOR_KERNELS_H_
#define BIX_BITMAP_BITVECTOR_KERNELS_H_

#include <span>

#include "bitmap/bitvector.h"

namespace bix {

/// AND of `operands` (non-empty, equal lengths) in one blocked pass.
Bitvector AndOfMany(std::span<const Bitvector> operands);

}  // namespace bix

#endif  // BIX_BITMAP_BITVECTOR_KERNELS_H_
