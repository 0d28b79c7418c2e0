#include "bitmap/wah_kernels.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "bitmap/wah_run_decoder.h"
#include "core/check.h"

namespace bix {

namespace {

using wah_internal::FillCount;
using wah_internal::FillValue;
using wah_internal::IsFill;
using wah_internal::kGroupBits;

// Decodes one operand's code words straight into the 64-bit accumulator —
// the inner loop of every k-ary fold.  A stitch buffer realigns the
// 31-bit groups: a literal costs three ALU ops, and the accumulator is
// touched once per *output word* (2.06 groups), not once per group, so the
// fused fold beats inflate-into-a-Bitvector-then-fold by skipping both the
// per-operand materialization and its extra pass.  Fills bypass the buffer
// for their word-aligned middle: identity fills (zeros for OR, ones for
// AND) skip whole words, dominant fills overwrite them with pure stores.
//
// The stream covers ceil(num_bits/31)*31 bits, which can run past the
// accumulator's last word; writes there are dropped (canonical inputs keep
// every bit past num_bits zero, so the dropped bits are identity).
template <bool kIsOr>
void FoldOperandInto(std::span<uint64_t> words, const WahBitvector& o) {
  const size_t nwords = words.size();
  size_t w = 0;       // accumulator word the buffer starts in
  uint64_t buf = 0;   // pending stream bits [64w, 64w + n)
  unsigned n = 0;
  auto flush = [&](uint64_t full) {
    if (w < nwords) {
      if (kIsOr) {
        words[w] |= full;
      } else {
        words[w] &= full;
      }
    }
    ++w;
  };
  const std::vector<uint32_t>& code = o.code_words();
  const size_t m = code.size();
  size_t i = 0;
  while (i < m) {
    // Literal-pair fast path: on low-compressibility inputs literals come
    // in long runs, so load two code words at once (one 64-bit load, one
    // fill test) and stitch their 62 payload bits together.
    if (i + 1 < m) {
      uint64_t two;
      std::memcpy(&two, code.data() + i, sizeof(two));
      if ((two & 0x8000000080000000ull) == 0) {
        const uint64_t pair = (two & 0x7fffffffull) |
                              ((two >> 1) & 0x3fffffff80000000ull);
        buf |= pair << n;
        n += 2 * kGroupBits;
        if (n >= 64) {
          flush(buf);
          n -= 64;
          buf = n == 0 ? 0 : pair >> (2 * kGroupBits - n);
        }
        i += 2;
        continue;
      }
    }
    const uint32_t cw = code[i++];
    if (!IsFill(cw)) {
      buf |= uint64_t{cw} << n;
      n += kGroupBits;
      if (n >= 64) {
        flush(buf);
        n -= 64;
        buf = n == 0 ? 0 : uint64_t{cw} >> (kGroupBits - n);
      }
      continue;
    }
    const bool v = FillValue(cw);
    uint64_t span = uint64_t{FillCount(cw)} * kGroupBits;
    if (n != 0) {
      const unsigned take = 64 - n;
      if (span < take) {
        if (v) buf |= ((uint64_t{1} << span) - 1) << n;
        n += static_cast<unsigned>(span);
        continue;
      }
      if (v) buf |= ~uint64_t{0} << n;
      flush(buf);
      buf = 0;
      n = 0;
      span -= take;
    }
    const size_t target = w + (span >> 6);
    if (v == kIsOr) {
      // Dominant fill: pure stores, no read of the accumulator.
      const uint64_t store = kIsOr ? ~uint64_t{0} : uint64_t{0};
      for (const size_t end = std::min(target, nwords); w < end; ++w) {
        words[w] = store;
      }
    }
    w = target;  // identity fills skip their whole words
    n = static_cast<unsigned>(span & 63);
    if (n != 0) buf = v ? (uint64_t{1} << n) - 1 : 0;
  }
  if (n != 0 && w < nwords) {
    // Partial final word: bits at or above n belong to no group and stay
    // untouched (AND masks them back in as identity).
    if (kIsOr) {
      words[w] |= buf;
    } else {
      words[w] &= buf | (~uint64_t{0} << n);
    }
  }
}

// One accumulator initialized to the fold identity, every operand stitched
// into it in place.
template <bool kIsOr>
Bitvector DenseFold(std::span<const WahBitvector* const> operands) {
  BIX_CHECK(!operands.empty());
  const size_t num_bits = operands[0]->size();
  for (const WahBitvector* o : operands) BIX_CHECK(o->size() == num_bits);
  Bitvector acc(num_bits, !kIsOr);
  for (const WahBitvector* o : operands) {
    FoldOperandInto<kIsOr>(acc.mutable_words(), *o);
  }
  return acc;
}

std::vector<const WahBitvector*> Pointers(
    std::span<const WahBitvector> operands) {
  std::vector<const WahBitvector*> ptrs;
  ptrs.reserve(operands.size());
  for (const WahBitvector& o : operands) ptrs.push_back(&o);
  return ptrs;
}

}  // namespace

Bitvector DenseOrOfMany(std::span<const WahBitvector* const> operands) {
  return DenseFold<true>(operands);
}

Bitvector DenseAndOfMany(std::span<const WahBitvector* const> operands) {
  return DenseFold<false>(operands);
}

WahBitvector WahBitvector::OrOfMany(
    std::span<const WahBitvector* const> operands) {
  // k == 1: the combination is the operand itself; copy the code words
  // instead of round-tripping them through the accumulator and encoder.
  if (operands.size() == 1) return *operands[0];
  return FromBitvector(DenseOrOfMany(operands));
}

WahBitvector WahBitvector::AndOfMany(
    std::span<const WahBitvector* const> operands) {
  if (operands.size() == 1) return *operands[0];
  return FromBitvector(DenseAndOfMany(operands));
}

WahBitvector OrOfMany(std::span<const WahBitvector> operands) {
  return WahBitvector::OrOfMany(Pointers(operands));
}

WahBitvector AndOfMany(std::span<const WahBitvector> operands) {
  return WahBitvector::AndOfMany(Pointers(operands));
}

}  // namespace bix
