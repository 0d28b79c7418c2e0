#include "bitmap/wah_kernels.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "bitmap/wah_run_decoder.h"
#include "core/check.h"

namespace bix {

namespace {

using wah_internal::FillCount;
using wah_internal::FillValue;
using wah_internal::IsFill;
using wah_internal::kGroupBits;
using wah_internal::kMaxFillCount;
using wah_internal::SetBitRange;

// The stitch: decodes one operand's code words straight into the 64-bit
// accumulator — the inner loop of every k-ary AND, and of the OR over
// streams the group-space fold below does not take.  A stitch buffer
// realigns the 31-bit groups: a literal costs three ALU ops, and the
// accumulator is touched once per *output word* (2.06 groups), not once per
// group, so the fused fold beats inflate-into-a-Bitvector-then-fold by
// skipping both the per-operand materialization and its extra pass.  Fills
// bypass the buffer for their word-aligned middle: identity fills (zeros
// for OR, ones for AND) skip whole words, dominant fills overwrite them with
// pure stores.
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

// --- Group-space OR fold --------------------------------------------------
//
// The stitch above pays a variable shift and a buffer hand-off per code
// word, and on a stream that mixes fills and literals the fill/literal branch
// mispredicts.  The group-space fold places each literal at its own 31-bit
// group slot instead: one branch-free pass per operand (`slot[g] |= literal`,
// 0 for fills, then `g += run length`), with no bit stitching.  Once every
// operand is in, each 64-group block that received a literal (64 groups are
// 1984 bits, exactly 31 output words) is packed into the accumulator with
// constant shifts and its slots are zeroed again.  Ones fills set their bit
// range in the accumulator directly.
constexpr size_t kBlockGroups = 64;
constexpr size_t kBlockWords = kBlockGroups * kGroupBits / 64;  // 31
static_assert(kBlockWords * 64 == kBlockGroups * kGroupBits);

// Per-operand kernel rule, read off numbers the fold already has: the
// operand's code-word count `m` against the stream's group count `g`.  The
// group fold wins where fills and literals mix, m/g from 1/5 up to about
// 0.997 (uniform densities 0.4%-9%).  It loses to the stitch on near-all-fill
// streams (m/g = 0.06 at density 0.1%; the stitch skips whole fills while
// the group fold still packs every block that got a literal) and on
// all-literal ones (m/g = 1; the stitch's literal-pair path writes each
// output word once).  Measured over uniform densities 0.01%-50% at k from 1
// to 26 (DESIGN.md §9); bench_wah_merge keeps lanes on both sides.
bool UsesGroupSpace(size_t code_words, size_t groups) {
  return 5 * code_words >= groups && 100 * code_words < 99 * groups;
}

// Word J of a packed block: bits [64J, 64J + 64) of the 64 slots, at
// compile-time shifts.  Slots hold 31-bit payloads, so the ORed parts do not
// overlap, and bits shifted past 64 belong to the next word.
template <size_t J>
uint64_t PackedWord(const uint32_t* slots) {
  constexpr size_t kLo = 64 * J;
  constexpr size_t kFirst = kLo / kGroupBits;
  constexpr unsigned kOff = kLo % kGroupBits;
  uint64_t w = uint64_t{slots[kFirst]} >> kOff;
  w |= uint64_t{slots[kFirst + 1]} << (kGroupBits - kOff);
  w |= uint64_t{slots[kFirst + 2]} << (2 * kGroupBits - kOff);
  if constexpr (3 * kGroupBits - kOff < 64) {
    static_assert(kFirst + 3 < kBlockGroups);
    w |= uint64_t{slots[kFirst + 3]} << (3 * kGroupBits - kOff);
  }
  return w;
}

template <size_t... J>
void OrPackedBlock(const uint32_t* slots, uint64_t* out,
                   std::index_sequence<J...>) {
  ((out[J] |= PackedWord<J>(slots)), ...);
}

// Per-thread scratch: `slots` (64 per block) and `marks` (one per block) are
// all zero between folds.  It grows to the largest stream the thread has
// folded (4 bytes per 31 bits: 128 KB at 10^6 bits) and is never shared, so
// concurrent folds on serve lanes touch disjoint memory.
struct GroupScratch {
  std::vector<uint32_t> slots;
  std::vector<uint8_t> marks;
};

GroupScratch& ThreadGroupScratch(size_t blocks) {
  thread_local GroupScratch scratch;
  if (scratch.marks.size() < blocks) {
    scratch.slots.resize(blocks * kBlockGroups);
    scratch.marks.resize(blocks);
  }
  return scratch;
}

// One operand's pass into group space.  Every code word marks its start
// block with a plain store (a fill's mark is spurious but harmless), so no
// read-modify-write chain forms across words.
void ScatterOperand(const WahBitvector& o, uint32_t* slots, uint8_t* marks,
                    std::span<uint64_t> words) {
  const size_t num_bits = o.size();
  size_t g = 0;
  for (const uint32_t cw : o.code_words()) {
    const uint32_t fill = 0u - (cw >> 31);  // all ones iff cw is a fill
    slots[g] |= cw & ~fill;
    marks[g / kBlockGroups] = 1;
    const size_t run = (cw & fill & kMaxFillCount) | (~fill & 1u);
    if ((cw >> 30) == 3) [[unlikely]] {  // ones fill
      SetBitRange(words, g * kGroupBits,
                  std::min((g + run) * kGroupBits, num_bits));
    }
    g += run;
  }
}

// Packs every marked block into `words` (ORing, so ones fills and stitched
// operands already there stay) and zeroes what it read.  The final block may
// overhang the accumulator; it packs through a stack buffer whose overhang
// is dropped (canonical streams keep every bit past num_bits zero).
void PackMarkedBlocks(GroupScratch& scratch, size_t blocks,
                      std::span<uint64_t> words) {
  constexpr auto kWordSeq = std::make_index_sequence<kBlockWords>();
  for (size_t b = 0; b < blocks; ++b) {
    if (scratch.marks[b] == 0) continue;
    scratch.marks[b] = 0;
    uint32_t* slots = scratch.slots.data() + b * kBlockGroups;
    const size_t w0 = b * kBlockWords;
    if (w0 + kBlockWords <= words.size()) {
      OrPackedBlock(slots, words.data() + w0, kWordSeq);
    } else {
      uint64_t tail[kBlockWords] = {};
      OrPackedBlock(slots, tail, kWordSeq);
      for (size_t w = w0; w < words.size(); ++w) words[w] |= tail[w - w0];
    }
    std::memset(slots, 0, kBlockGroups * sizeof(uint32_t));
  }
}

// One accumulator initialized to the fold identity, every operand folded
// into it in place.  OR picks a kernel per operand (UsesGroupSpace); AND
// always stitches.
template <bool kIsOr>
Bitvector DenseFold(std::span<const WahBitvector* const> operands) {
  BIX_CHECK(!operands.empty());
  const size_t num_bits = operands[0]->size();
  for (const WahBitvector* o : operands) BIX_CHECK(o->size() == num_bits);
  Bitvector acc(num_bits, !kIsOr);
  std::span<uint64_t> words = acc.mutable_words();
  const size_t groups = (num_bits + kGroupBits - 1) / kGroupBits;
  const size_t blocks = (groups + kBlockGroups - 1) / kBlockGroups;
  GroupScratch* scratch = nullptr;
  for (const WahBitvector* o : operands) {
    if (kIsOr && UsesGroupSpace(o->code_words().size(), groups)) {
      if (scratch == nullptr) scratch = &ThreadGroupScratch(blocks);
      ScatterOperand(*o, scratch->slots.data(), scratch->marks.data(), words);
    } else {
      FoldOperandInto<kIsOr>(words, *o);
    }
  }
  if (scratch != nullptr) PackMarkedBlocks(*scratch, blocks, words);
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
