// Word-Aligned Hybrid (WAH) compressed bitvector.
//
// The paper compresses bitmaps only on disk and decompresses them before
// operating; the line of work it seeded (verbatim bitmap indexes with
// compressed in-memory execution, e.g. FastBit) operates directly on a
// word-aligned compressed form.  This class provides that substrate as an
// ablation companion to the dense Bitvector: logical AND/OR/XOR/NOT run on
// the compressed representation without materializing the dense form.
//
// Encoding: the bit sequence is split into 31-bit groups; each 32-bit code
// word is either a literal (MSB 0, 31 payload bits) or a fill (MSB 1, bit
// 30 the fill bit, low 30 bits a count of consecutive identical groups).
// All-zero / all-one literals are canonicalized into fills, so equal bit
// contents always have equal encodings.

#ifndef BIX_BITMAP_WAH_BITVECTOR_H_
#define BIX_BITMAP_WAH_BITVECTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bitmap/bitvector.h"

namespace bix {

class WahBitvector {
 public:
  /// Empty, zero-length vector.
  WahBitvector() = default;

  /// Compresses a dense bitvector.
  static WahBitvector FromBitvector(const Bitvector& dense);

  /// Rebuilds a vector from serialized code words (the storage layer's
  /// "wah" codec hands stored bitmaps to the compressed-domain engine
  /// without inflating them).  Structurally validates the stream — every
  /// word well-formed, fill counts non-zero, total groups matching
  /// `num_bits`, no set bits past `num_bits` — and returns false on
  /// malformed input, leaving `*out` untouched.  On success `words`
  /// moves into `*out`, so a caller that moves its vector in pays no copy.
  static bool TryFromCodeWords(std::vector<uint32_t> words, size_t num_bits,
                               WahBitvector* out);

  /// The all-`value` vector of `num_bits` bits (a single fill run; the
  /// compressed analogue of Bitvector::Zeros / Ones).
  static WahBitvector Fill(size_t num_bits, bool value);

  /// Materializes the dense form.
  Bitvector ToBitvector() const;

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  /// Compressed size (code words * 4 bytes).
  size_t SizeInBytes() const { return words_.size() * sizeof(uint32_t); }

  /// Number of set bits, computed on the compressed form.
  size_t Count() const;

  /// Popcount of `a AND b` computed run-at-a-time on the compressed forms,
  /// without materializing the intersection.  Fill x fill runs contribute in
  /// O(1); only literal groups are popcounted.  Sizes must match.
  static size_t AndCount(const WahBitvector& a, const WahBitvector& b);

  /// Logical operations on the compressed form; operand sizes must match.
  static WahBitvector And(const WahBitvector& a, const WahBitvector& b);
  static WahBitvector Or(const WahBitvector& a, const WahBitvector& b);
  static WahBitvector Xor(const WahBitvector& a, const WahBitvector& b);
  static WahBitvector AndNot(const WahBitvector& a, const WahBitvector& b);
  WahBitvector Not() const;

  /// Fused k-ary kernels (bitmap/wah_kernels.cc): every operand is folded
  /// into one dense accumulator and the result compressed once.  `operands`
  /// must be non-empty with equal sizes; k == 1 short-circuits to a copy.
  static WahBitvector OrOfMany(std::span<const WahBitvector* const> operands);
  static WahBitvector AndOfMany(std::span<const WahBitvector* const> operands);

  friend bool operator==(const WahBitvector& a, const WahBitvector& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

  /// Raw code words (for tests and size accounting).
  const std::vector<uint32_t>& code_words() const { return words_; }

 private:
  template <typename GroupOp>
  static WahBitvector BinaryOp(const WahBitvector& a, const WahBitvector& b,
                               GroupOp op);

  void AppendLiteral(uint32_t group);
  void AppendFill(bool value, uint64_t count);
  // Zeroes bits past num_bits_ in the final partial group (after NOT).
  void ClearTail();

  size_t num_bits_ = 0;
  std::vector<uint32_t> words_;
};

}  // namespace bix

#endif  // BIX_BITMAP_WAH_BITVECTOR_H_
