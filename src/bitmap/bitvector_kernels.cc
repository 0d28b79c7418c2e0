#include "bitmap/bitvector_kernels.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/check.h"

namespace bix {

namespace {

template <typename WordOp>
size_t CountCombined(const Bitvector& a, const Bitvector& b, WordOp op) {
  BIX_CHECK(a.size() == b.size());
  const uint64_t* wa = a.words().data();
  const uint64_t* wb = b.words().data();
  const size_t num_words = a.words().size();
  size_t count = 0;
  for (size_t w = 0; w < num_words; ++w) {
    count += static_cast<size_t>(PopCount64(op(wa[w], wb[w])));
  }
  return count;
}

}  // namespace

Bitvector Bitvector::AndOfMany(std::span<const Bitvector* const> operands) {
  // 1024 words = 8 KB: the accumulator block stays L1-resident across the k
  // operand passes while each operand stream is read exactly once.
  constexpr size_t kBlockWords = 1024;
  BIX_CHECK(!operands.empty());
  const size_t num_bits = operands[0]->size();
  for (const Bitvector* o : operands) BIX_CHECK(o->size() == num_bits);
  Bitvector out = *operands[0];
  std::span<uint64_t> dst = out.mutable_words();
  const size_t num_words = dst.size();
  for (size_t w0 = 0; w0 < num_words; w0 += kBlockWords) {
    const size_t w1 = std::min(w0 + kBlockWords, num_words);
    for (size_t k = 1; k < operands.size(); ++k) {
      const uint64_t* src = operands[k]->words().data();
      for (size_t w = w0; w < w1; ++w) dst[w] &= src[w];
    }
  }
  return out;
}

size_t Bitvector::CountAnd(const Bitvector& a, const Bitvector& b) {
  return CountCombined(a, b, [](uint64_t x, uint64_t y) { return x & y; });
}

size_t Bitvector::CountOr(const Bitvector& a, const Bitvector& b) {
  return CountCombined(a, b, [](uint64_t x, uint64_t y) { return x | y; });
}

// The tail bits of `a` are zero, so the unmasked complement of `b`'s tail
// never leaks into the count.
size_t Bitvector::AndNotCount(const Bitvector& a, const Bitvector& b) {
  return CountCombined(a, b, [](uint64_t x, uint64_t y) { return x & ~y; });
}

Bitvector AndOfMany(std::span<const Bitvector> operands) {
  std::vector<const Bitvector*> ptrs;
  ptrs.reserve(operands.size());
  for (const Bitvector& o : operands) ptrs.push_back(&o);
  return Bitvector::AndOfMany(ptrs);
}

}  // namespace bix
