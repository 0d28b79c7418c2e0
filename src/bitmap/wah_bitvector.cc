#include "bitmap/wah_bitvector.h"

#include <algorithm>
#include <utility>

#include "bitmap/wah_run_decoder.h"
#include "core/check.h"

namespace bix {

using namespace wah_internal;

void WahBitvector::AppendLiteral(uint32_t group) {
  BIX_DCHECK((group & kFillFlag) == 0);
  if (group == 0) {
    AppendFill(false, 1);
  } else if (group == kLiteralMask) {
    AppendFill(true, 1);
  } else {
    words_.push_back(group);
  }
}

void WahBitvector::AppendFill(bool value, uint64_t count) {
  while (count > 0) {
    if (!words_.empty() && IsFill(words_.back()) &&
        FillValue(words_.back()) == value &&
        FillCount(words_.back()) < kMaxFillCount) {
      uint64_t room = kMaxFillCount - FillCount(words_.back());
      uint64_t take = std::min(room, count);
      words_.back() += static_cast<uint32_t>(take);
      count -= take;
    } else {
      uint32_t take = static_cast<uint32_t>(
          std::min<uint64_t>(count, kMaxFillCount));
      words_.push_back(kFillFlag | (value ? kFillValueFlag : 0) | take);
      count -= take;
    }
  }
}

WahBitvector WahBitvector::Fill(size_t num_bits, bool value) {
  WahBitvector out;
  out.num_bits_ = num_bits;
  size_t groups = (num_bits + kGroupBits - 1) / kGroupBits;
  out.AppendFill(value, groups);
  out.ClearTail();  // a ones fill must not cover bits past num_bits
  return out;
}

WahBitvector WahBitvector::FromBitvector(const Bitvector& dense) {
  WahBitvector out;
  out.num_bits_ = dense.size();
  std::span<const uint64_t> words = dense.words();
  size_t groups = (dense.size() + kGroupBits - 1) / kGroupBits;
  for (size_t g = 0; g < groups; ++g) {
    // Extract the 31-bit group straddling at most two backing words.
    size_t start = g * kGroupBits;
    size_t w = start >> 6;
    uint32_t off = static_cast<uint32_t>(start & 63);
    uint64_t bits = words[w] >> off;
    if (off > 64 - kGroupBits && w + 1 < words.size()) {
      bits |= words[w + 1] << (64 - off);
    }
    uint32_t group = static_cast<uint32_t>(bits) & kLiteralMask;
    if (start + kGroupBits > dense.size()) {
      uint32_t tail = static_cast<uint32_t>(dense.size() - start);
      group &= (uint32_t{1} << tail) - 1;
    }
    out.AppendLiteral(group);
  }
  return out;
}

namespace {

// The structural check behind TryFromCodeWords.  Every word adds its groups
// without a branch on its kind (a fill its count, a literal one), and
// zero-count fills are OR-ed into a flag: on noisy bitmaps a per-word
// fill/literal branch mispredicts.  Since every accepted word adds at least
// one group, the word that completes the final group is the last one, so
// the partial-group rules are checked once, on the last word.
bool ValidCodeWords(std::span<const uint32_t> words, size_t num_bits) {
  const uint64_t want_groups = (num_bits + kGroupBits - 1) / kGroupBits;
  uint64_t groups = 0;
  uint32_t zero_fill = 0;
  for (uint32_t word : words) {
    const uint32_t fill = word >> 31;
    const uint32_t count = FillCount(word);
    groups += (count & (0u - fill)) | (fill ^ 1u);
    zero_fill |= fill & static_cast<uint32_t>(count == 0);
  }
  if (zero_fill != 0 || groups != want_groups) return false;
  const uint32_t tail = static_cast<uint32_t>(num_bits % kGroupBits);
  if (tail == 0) return true;  // also covers the empty stream
  const uint32_t last = words.back();
  // A ones fill over the partial final group would assert bits past
  // num_bits (the canonical encoder never emits one); a final literal must
  // keep those bits clear.
  return IsFill(last) ? !FillValue(last) : (last >> tail) == 0;
}

}  // namespace

bool WahBitvector::TryFromCodeWords(std::vector<uint32_t> words,
                                    size_t num_bits, WahBitvector* out) {
  if (!ValidCodeWords(words, num_bits)) return false;
  out->num_bits_ = num_bits;
  out->words_ = std::move(words);
  return true;
}

namespace {

// Sets bits [lo, hi) in the backing words of a dense bitvector.
void SetBitRange(std::span<uint64_t> words, size_t lo, size_t hi) {
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

}  // namespace

Bitvector WahBitvector::ToBitvector() const {
  Bitvector out(num_bits_);
  std::span<uint64_t> words = out.mutable_words();
  size_t bit = 0;
  for (uint32_t word : words_) {
    if (IsFill(word)) {
      size_t span = static_cast<size_t>(FillCount(word)) * kGroupBits;
      if (FillValue(word)) {
        // ClearTail keeps ones fills inside num_bits_; clamp defensively.
        SetBitRange(words, bit, std::min(bit + span, num_bits_));
      }
      bit += span;
    } else {
      // OR the 31-bit group into the (at most two) straddled words.  Spill
      // bits past the final backing word are zero in canonical form (the
      // tail group is masked) and can be dropped.
      size_t w = bit >> 6;
      uint32_t off = static_cast<uint32_t>(bit & 63);
      words[w] |= static_cast<uint64_t>(word) << off;
      if (off > 64 - kGroupBits && w + 1 < words.size()) {
        words[w + 1] |= static_cast<uint64_t>(word) >> (64 - off);
      }
      bit += kGroupBits;
    }
  }
  return out;
}

size_t WahBitvector::Count() const {
  size_t count = 0;
  size_t bit = 0;
  for (uint32_t word : words_) {
    if (IsFill(word)) {
      size_t span = static_cast<size_t>(FillCount(word)) * kGroupBits;
      if (FillValue(word)) {
        // A ones-fill never covers bits past num_bits_ (tails are kept
        // zero), so the whole span counts.
        count += std::min(span, num_bits_ - bit);
      }
      bit += span;
    } else {
      count += static_cast<size_t>(PopCount64(word));
      bit += kGroupBits;
    }
  }
  return count;
}

template <typename GroupOp>
WahBitvector WahBitvector::BinaryOp(const WahBitvector& a,
                                    const WahBitvector& b, GroupOp op) {
  BIX_CHECK(a.num_bits_ == b.num_bits_);
  WahBitvector out;
  out.num_bits_ = a.num_bits_;
  RunDecoder x(a.words_);
  RunDecoder y(b.words_);
  while (!x.done() && !y.done()) {
    if (x.is_fill() && y.is_fill()) {
      uint64_t n = std::min(x.groups_left(), y.groups_left());
      uint32_t rg = op(x.group(), y.group()) & kLiteralMask;
      // A bitwise group op on two fills is itself a fill.
      BIX_DCHECK(rg == 0 || rg == kLiteralMask);
      out.AppendFill(rg == kLiteralMask, n);
      x.Consume(n);
      y.Consume(n);
    } else {
      out.AppendLiteral(op(x.group(), y.group()) & kLiteralMask);
      x.Consume(1);
      y.Consume(1);
    }
  }
  BIX_CHECK(x.done() && y.done());
  return out;
}

size_t WahBitvector::AndCount(const WahBitvector& a, const WahBitvector& b) {
  BIX_CHECK(a.num_bits_ == b.num_bits_);
  RunDecoder x(a.words_);
  RunDecoder y(b.words_);
  size_t count = 0;
  size_t bit = 0;
  while (!x.done() && !y.done()) {
    if (x.is_fill() && y.is_fill()) {
      uint64_t n = std::min(x.groups_left(), y.groups_left());
      if (x.fill_value() && y.fill_value()) {
        // As in Count(): a ones-fill never covers bits past num_bits_, but
        // clamp defensively so the tail can never over-count.
        size_t span = static_cast<size_t>(n) * kGroupBits;
        count += std::min(span, a.num_bits_ - bit);
      }
      bit += static_cast<size_t>(n) * kGroupBits;
      x.Consume(n);
      y.Consume(n);
    } else {
      count += static_cast<size_t>(PopCount64(x.group() & y.group()));
      bit += kGroupBits;
      x.Consume(1);
      y.Consume(1);
    }
  }
  BIX_CHECK(x.done() && y.done());
  return count;
}

WahBitvector WahBitvector::And(const WahBitvector& a, const WahBitvector& b) {
  return BinaryOp(a, b, [](uint32_t x, uint32_t y) { return x & y; });
}

WahBitvector WahBitvector::Or(const WahBitvector& a, const WahBitvector& b) {
  return BinaryOp(a, b, [](uint32_t x, uint32_t y) { return x | y; });
}

WahBitvector WahBitvector::Xor(const WahBitvector& a, const WahBitvector& b) {
  return BinaryOp(a, b, [](uint32_t x, uint32_t y) { return x ^ y; });
}

WahBitvector WahBitvector::AndNot(const WahBitvector& a,
                                  const WahBitvector& b) {
  return BinaryOp(a, b, [](uint32_t x, uint32_t y) { return x & ~y; });
}

WahBitvector WahBitvector::Not() const {
  WahBitvector out;
  out.num_bits_ = num_bits_;
  for (uint32_t word : words_) {
    if (IsFill(word)) {
      out.AppendFill(!FillValue(word), FillCount(word));
    } else {
      out.AppendLiteral(~word & kLiteralMask);
    }
  }
  out.ClearTail();
  return out;
}

void WahBitvector::ClearTail() {
  uint32_t tail_bits = static_cast<uint32_t>(num_bits_ % kGroupBits);
  if (tail_bits == 0 || words_.empty()) return;
  uint32_t mask = (uint32_t{1} << tail_bits) - 1;
  uint32_t last = words_.back();
  if (IsFill(last)) {
    if (!FillValue(last)) return;  // zero fill: tail already clear
    // Peel the final group off the ones-fill and mask it.
    if (FillCount(last) == 1) {
      words_.pop_back();
    } else {
      words_.back() = last - 1;
    }
    AppendLiteral(kLiteralMask & mask);
  } else {
    words_.pop_back();
    AppendLiteral(last & mask);
  }
}

}  // namespace bix
