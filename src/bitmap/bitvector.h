// Dense bit-vector substrate for bitmap indexes.
//
// A Bitvector is a fixed-length sequence of bits packed into 64-bit words.
// It supports the four logical operations the paper relies on (AND, OR, XOR,
// NOT) both in place and as copying operators, population count, set-bit
// iteration, and (de)serialization to a byte buffer for the physical storage
// schemes.  All binary operations require operands of equal length.

#ifndef BIX_BITMAP_BITVECTOR_H_
#define BIX_BITMAP_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/check.h"

namespace bix {

/// Branch-free SWAR population count.  The default x86-64 target has no
/// popcnt instruction, so std::popcount compiles to a libgcc call per word;
/// this inlines to a dozen ALU ops.
///
/// Dispatch rule: Bitvector::Count() — the only count on a query path
/// (serve's row count, the sorted remap's complement choice, the tombstone
/// count) — runs a `popcnt` word loop chosen once per process when the CPU
/// has the instruction (popcount_internal below), and this kernel only as
/// its fallback.  The fused two-operand counts (CountAnd/CountOr/
/// AndNotCount, called only by core/aggregate.cc) and the WAH Count/AndCount
/// (no caller outside bitmap/) run on no benchmarked path and call this
/// directly.
inline int PopCount64(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

namespace popcount_internal {

/// True when the CPU has `popcnt` and Count() runs HardwareCount.
bool HardwareAvailable();

/// Set bits in `words`, exposed so tests can cross-check the two kernels.
/// PortableCount sums PopCount64; HardwareCount runs `popcnt` over four
/// independent accumulators and must only be called when
/// HardwareAvailable() (on other targets it is PortableCount).
size_t PortableCount(std::span<const uint64_t> words);
size_t HardwareCount(std::span<const uint64_t> words);

}  // namespace popcount_internal

class Bitvector {
 public:
  /// Creates an empty (zero-length) bitvector.
  Bitvector() = default;

  /// Creates a bitvector of `num_bits` bits, all set to `value`.
  explicit Bitvector(size_t num_bits, bool value = false);

  Bitvector(const Bitvector&) = default;
  Bitvector& operator=(const Bitvector&) = default;
  Bitvector(Bitvector&&) noexcept = default;
  Bitvector& operator=(Bitvector&&) noexcept = default;

  /// Convenience factories mirroring the paper's B0 / B1 bitmaps.
  static Bitvector Zeros(size_t num_bits) { return Bitvector(num_bits, false); }
  static Bitvector Ones(size_t num_bits) { return Bitvector(num_bits, true); }

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  bool Get(size_t i) const {
    BIX_DCHECK(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(size_t i, bool value = true) {
    BIX_DCHECK(i < num_bits_);
    uint64_t mask = uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  /// Grows or shrinks to `num_bits`; new bits are zero.
  void Resize(size_t num_bits);

  /// Pre-allocates word storage for `num_bits` bits without changing size();
  /// a subsequent PushBack loop up to that length never reallocates.
  void Reserve(size_t num_bits);

  /// Appends one bit at index size().  Word storage grows geometrically (via
  /// vector push_back), so building a bitvector bit-by-bit is amortized O(1)
  /// per bit rather than the O(n) of an exact Resize per call.
  void PushBack(bool value) {
    size_t word = num_bits_ >> 6;
    if (word == words_.size()) words_.push_back(0);
    if (value) words_[word] |= uint64_t{1} << (num_bits_ & 63);
    ++num_bits_;
  }

  /// In-place logical operations; `other.size()` must equal `size()`.
  void AndWith(const Bitvector& other);
  void OrWith(const Bitvector& other);
  void XorWith(const Bitvector& other);
  void AndNotWith(const Bitvector& other);  // this &= ~other
  void NotInPlace();

  /// Number of set bits.
  size_t Count() const;

  bool Any() const;
  bool None() const { return !Any(); }
  bool All() const;

  /// Index of the first set bit at or after `from`, or `size()` if none.
  size_t NextSetBit(size_t from) const;

  /// Invokes `fn(i)` for every set bit index i in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        int bit = __builtin_ctzll(word);
        fn(static_cast<size_t>((w << 6) + bit));
        word &= word - 1;
      }
    }
  }

  /// Returns the indices of all set bits (a RID list).
  std::vector<uint32_t> ToSetBitIndices() const;

  /// Packs the bits into ceil(size()/8) bytes, little-endian within bytes.
  std::vector<uint8_t> ToBytes() const;

  /// Reconstructs a bitvector of `num_bits` bits from `ToBytes()` output.
  /// Aborts if `bytes` is shorter than ceil(num_bits/8).
  static Bitvector FromBytes(std::span<const uint8_t> bytes, size_t num_bits);

  /// Fused k-ary AND (bitmap/bitvector_kernels.cc): a single blocked pass
  /// over the operands instead of materializing pairwise temporaries.  All
  /// operands must have equal length and `operands` must be non-empty.
  static Bitvector AndOfMany(std::span<const Bitvector* const> operands);

  /// Popcount of a two-operand combination without materializing the result.
  static size_t CountAnd(const Bitvector& a, const Bitvector& b);
  static size_t CountOr(const Bitvector& a, const Bitvector& b);
  static size_t AndNotCount(const Bitvector& a, const Bitvector& b);  // |a&~b|

  /// Raw word access (for benchmarks and serialization internals).  The bits
  /// past `size()` in the last word are always zero.
  std::span<const uint64_t> words() const { return words_; }

  /// Mutable word access for record and replay (core/eval.cc), which writes
  /// results segment-at-a-time.  Callers must keep the tail
  /// invariant: bits past `size()` in the last word stay zero.
  std::span<uint64_t> mutable_words() { return words_; }

  friend bool operator==(const Bitvector& a, const Bitvector& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

  friend Bitvector operator&(Bitvector a, const Bitvector& b) {
    a.AndWith(b);
    return a;
  }
  friend Bitvector operator|(Bitvector a, const Bitvector& b) {
    a.OrWith(b);
    return a;
  }
  friend Bitvector operator^(Bitvector a, const Bitvector& b) {
    a.XorWith(b);
    return a;
  }
  friend Bitvector operator~(Bitvector a) {
    a.NotInPlace();
    return a;
  }

 private:
  // Zeroes any bits in the final word beyond num_bits_ so that Count(),
  // operator== and serialization stay canonical after NOT.
  void ClearTail();

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace bix

#endif  // BIX_BITMAP_BITVECTOR_H_
