// Internal WAH code-word vocabulary, shared by the codec (wah_bitvector.cc)
// and the fused multi-operand kernels (wah_kernels.cc): the code-word
// fields, the ones-fill bit-range setter both use on dense words, and the
// codec's run decoder.
// Not part of the public surface; include only from bitmap/ sources.

#ifndef BIX_BITMAP_WAH_RUN_DECODER_H_
#define BIX_BITMAP_WAH_RUN_DECODER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/check.h"

namespace bix::wah_internal {

inline constexpr uint32_t kGroupBits = 31;
inline constexpr uint32_t kLiteralMask = 0x7FFFFFFFu;
inline constexpr uint32_t kFillFlag = 0x80000000u;
inline constexpr uint32_t kFillValueFlag = 0x40000000u;
inline constexpr uint32_t kMaxFillCount = 0x3FFFFFFFu;

inline bool IsFill(uint32_t word) { return (word & kFillFlag) != 0; }
inline bool FillValue(uint32_t word) { return (word & kFillValueFlag) != 0; }
inline uint32_t FillCount(uint32_t word) { return word & kMaxFillCount; }

// Sets bits [lo, hi) in the backing words of a dense bitvector (a ones
// fill's span; callers clamp `hi` to the vector's size).
inline void SetBitRange(std::span<uint64_t> words, size_t lo, size_t hi) {
  if (lo >= hi) return;
  size_t wlo = lo >> 6;
  size_t whi = (hi - 1) >> 6;
  uint64_t first = ~uint64_t{0} << (lo & 63);
  uint64_t last =
      (hi & 63) != 0 ? ~uint64_t{0} >> (64 - (hi & 63)) : ~uint64_t{0};
  if (wlo == whi) {
    words[wlo] |= first & last;
    return;
  }
  words[wlo] |= first;
  for (size_t w = wlo + 1; w < whi; ++w) words[w] = ~uint64_t{0};
  words[whi] |= last;
}

// Sequential reader over the code words, exposing one run at a time.
class RunDecoder {
 public:
  explicit RunDecoder(const std::vector<uint32_t>& words) : words_(words) {
    Advance();
  }

  bool done() const { return done_; }
  bool is_fill() const { return is_fill_; }
  bool fill_value() const { return fill_value_; }
  uint64_t groups_left() const { return groups_left_; }
  uint32_t literal() const { return literal_; }

  // The current group as a 31-bit payload (fills expand to 0 / all-ones).
  uint32_t group() const {
    return is_fill_ ? (fill_value_ ? kLiteralMask : 0) : literal_;
  }

  // Consumes `n` groups of the current run (n == groups_left() for
  // literals, n <= groups_left() for fills).
  void Consume(uint64_t n) {
    BIX_DCHECK(n <= groups_left_);
    groups_left_ -= n;
    if (groups_left_ == 0) Advance();
  }

 private:
  void Advance() {
    if (index_ == words_.size()) {
      done_ = true;
      return;
    }
    uint32_t word = words_[index_++];
    if (IsFill(word)) {
      is_fill_ = true;
      fill_value_ = FillValue(word);
      groups_left_ = FillCount(word);
    } else {
      is_fill_ = false;
      literal_ = word;
      groups_left_ = 1;
    }
  }

  const std::vector<uint32_t>& words_;
  size_t index_ = 0;
  bool done_ = false;
  bool is_fill_ = false;
  bool fill_value_ = false;
  uint64_t groups_left_ = 0;
  uint32_t literal_ = 0;
};

}  // namespace bix::wah_internal

#endif  // BIX_BITMAP_WAH_RUN_DECODER_H_
