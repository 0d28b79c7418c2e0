// Harness for the k-ary WAH folds (bitmap/wah_kernels.h): the dense fold
// and the WAH-returning forms must match the dense OR/AND reference on
// adversarial inputs — uniform noise that defeats compression, large k,
// alternating literal/fill runs placed at the 31/32/63/64 bit seams,
// all-fill operands, zero-length operands and long sparse bitmaps — and the
// WAH results must be canonically encoded.  Also pins down the contract
// edges: k == 1 short-circuits to a copy and the empty span dies.
//
// The WahGroupFoldTest cases aim at the OR fold's per-operand kernel choice
// (wah_kernels.cc: group space for streams that mix fills and literals, the
// stitch otherwise) at production sizes and at the 64-group block seams the
// group fold packs by.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "bitmap/wah_kernels.h"

namespace bix {
namespace {

std::vector<const WahBitvector*> Pointers(const std::vector<WahBitvector>& v) {
  std::vector<const WahBitvector*> out;
  out.reserve(v.size());
  for (const WahBitvector& w : v) out.push_back(&w);
  return out;
}

// Uniform noise: every 31-bit group is a literal in every operand, the
// worst case for run-at-a-time merging.
Bitvector Noise(std::mt19937_64& rng, size_t bits) {
  Bitvector out(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng() & 1) out.Set(i);
  }
  return out;
}

// Alternating literal/fill segments with lengths straddling the group (31),
// code-word (32), and dense-word (63/64) seams.
Bitvector SeamPattern(std::mt19937_64& rng, size_t bits) {
  const size_t kSeams[] = {31, 32, 63, 64};
  Bitvector out(bits);
  size_t bit = 0;
  bool literal = rng() & 1;
  while (bit < bits) {
    size_t len = std::min<size_t>(kSeams[rng() % 4], bits - bit);
    if (literal) {
      for (size_t i = 0; i < len; ++i) {
        if (rng() & 1) out.Set(bit + i);
      }
    } else if (rng() & 1) {
      for (size_t i = 0; i < len; ++i) out.Set(bit + i);
    }
    bit += len;
    literal = !literal;
  }
  return out;
}

void ExpectFoldsMatchReference(const std::vector<Bitvector>& dense,
                               const std::string& ctx) {
  std::vector<WahBitvector> wah;
  wah.reserve(dense.size());
  for (const Bitvector& d : dense) {
    wah.push_back(WahBitvector::FromBitvector(d));
  }
  Bitvector ref_or(dense[0].size());
  Bitvector ref_and(dense[0].size(), true);
  for (const Bitvector& d : dense) {
    ref_or.OrWith(d);
    ref_and.AndWith(d);
  }

  const std::vector<const WahBitvector*> ptrs = Pointers(wah);
  ASSERT_TRUE(DenseOrOfMany(ptrs) == ref_or) << ctx;
  ASSERT_TRUE(DenseAndOfMany(ptrs) == ref_and) << ctx;
  WahBitvector got_or = OrOfMany(wah);
  WahBitvector got_and = AndOfMany(wah);
  // Code-word equality, not just bit equality: the WAH forms must emit the
  // canonical encoding.
  ASSERT_TRUE(got_or == WahBitvector::FromBitvector(ref_or)) << ctx;
  ASSERT_TRUE(got_and == WahBitvector::FromBitvector(ref_and)) << ctx;
  ASSERT_EQ(got_or.Count(), ref_or.Count()) << ctx;
  ASSERT_EQ(got_and.Count(), ref_and.Count()) << ctx;
}

TEST(WahMergeTest, UniformNoiseMatchesDenseReference) {
  std::mt19937_64 rng(20260805);
  for (size_t k : {2u, 3u, 8u, 16u}) {
    for (size_t bits : {64u, 993u, 4096u}) {
      std::vector<Bitvector> dense;
      for (size_t i = 0; i < k; ++i) dense.push_back(Noise(rng, bits));
      ExpectFoldsMatchReference(dense, "noise k=" + std::to_string(k) +
                                           " bits=" + std::to_string(bits));
    }
  }
}

TEST(WahMergeTest, SeamPatternsLargeK) {
  std::mt19937_64 rng(20260806);
  for (size_t k : {2u, 5u, 12u, 24u}) {
    for (size_t bits : {31u, 32u, 63u, 64u, 65u, 2048u}) {
      std::vector<Bitvector> dense;
      for (size_t i = 0; i < k; ++i) dense.push_back(SeamPattern(rng, bits));
      ExpectFoldsMatchReference(dense, "seam k=" + std::to_string(k) +
                                           " bits=" + std::to_string(bits));
    }
  }
}

// All-fill operands exercise the dominant- and identity-fill paths with no
// literal groups at all; include a partial tail group.
TEST(WahMergeTest, AllFillOperands) {
  for (size_t bits : {31u, 62u, 93u, 100u, 1023u}) {
    for (int mix = 0; mix < 4; ++mix) {
      std::vector<Bitvector> dense;
      dense.emplace_back(bits, (mix & 1) != 0);
      dense.emplace_back(bits, (mix & 2) != 0);
      dense.emplace_back(bits, false);
      ExpectFoldsMatchReference(dense, "fills bits=" + std::to_string(bits) +
                                           " mix=" + std::to_string(mix));
    }
  }
}

// Zero-length operands are legal (empty bitmaps), it is the empty *span*
// that violates the contract.
TEST(WahMergeTest, ZeroLengthOperands) {
  std::vector<Bitvector> dense(3, Bitvector(0));
  ExpectFoldsMatchReference(dense, "zero-length");
}

TEST(WahMergeTest, SingleOperandShortCircuitsToCopy) {
  std::mt19937_64 rng(20260807);
  Bitvector d = SeamPattern(rng, 777);
  std::vector<WahBitvector> one = {WahBitvector::FromBitvector(d)};
  EXPECT_TRUE(OrOfMany(one) == one[0]);
  EXPECT_TRUE(AndOfMany(one) == one[0]);
  const std::vector<const WahBitvector*> ptrs = Pointers(one);
  EXPECT_TRUE(DenseOrOfMany(ptrs) == d);
  EXPECT_TRUE(DenseAndOfMany(ptrs) == d);
}

TEST(WahMergeDeathTest, EmptySpanDies) {
  std::vector<WahBitvector> none;
  std::vector<const WahBitvector*> no_ptrs;
  EXPECT_DEATH(OrOfMany(none), "empty");
  EXPECT_DEATH(AndOfMany(none), "empty");
  EXPECT_DEATH(DenseOrOfMany(no_ptrs), "empty");
  EXPECT_DEATH(DenseAndOfMany(no_ptrs), "empty");
}

// Incompressible operands long enough that every operand is thousands of
// literal groups.
TEST(WahMergeTest, LargeNoiseMatchesDenseReference) {
  std::mt19937_64 rng(20260809);
  const size_t kBits = 31 * 3000;  // ~3000 literal groups per operand
  std::vector<Bitvector> dense;
  for (size_t i = 0; i < 8; ++i) dense.push_back(Noise(rng, kBits));
  ExpectFoldsMatchReference(dense, "large noise");
}

// Long, highly compressible operands: a few literals between fills that
// span many accumulator words.
TEST(WahMergeTest, LongSparseMatchesDenseReference) {
  const size_t kBits = 31 * 100000;
  std::vector<Bitvector> dense;
  for (int i = 0; i < 8; ++i) {
    Bitvector d(kBits);
    for (size_t bit = static_cast<size_t>(i) * 1000; bit < kBits;
         bit += 70001) {
      d.Set(bit);
    }
    dense.push_back(std::move(d));
  }
  ExpectFoldsMatchReference(dense, "long sparse");
}

// Folds over operands of different shapes — incompressible noise, seam
// patterns, all-ones and all-zeros fills and a sparse bitmap — so literal
// groups of one operand meet dominant and identity fills of the others in
// the same accumulator words.  Every subset of two or more shapes is folded,
// forwards and reversed.
TEST(WahMergeTest, MixedShapeOperandsMatchDenseReference) {
  std::mt19937_64 rng(20261018);
  for (size_t bits : {31u, 64u, 993u, 31u * 200 + 17}) {
    Bitvector sparse(bits);
    for (size_t bit = 7; bit < bits; bit += 151) sparse.Set(bit);
    const std::vector<Bitvector> shapes = {
        Noise(rng, bits), SeamPattern(rng, bits), Bitvector(bits, true),
        Bitvector(bits), std::move(sparse)};
    for (unsigned mask = 0; mask < (1u << shapes.size()); ++mask) {
      std::vector<Bitvector> dense;
      for (size_t i = 0; i < shapes.size(); ++i) {
        if ((mask >> i) & 1) dense.push_back(shapes[i]);
      }
      if (dense.size() < 2) continue;
      const std::string ctx =
          "mixed bits=" + std::to_string(bits) + " mask=" + std::to_string(mask);
      ExpectFoldsMatchReference(dense, ctx);
      std::reverse(dense.begin(), dense.end());
      ExpectFoldsMatchReference(dense, ctx + " reversed");
    }
  }
}

// Bernoulli(p) bits, drawn by geometric gaps so sparse 10^6-bit operands
// cost one draw per set bit.
Bitvector RandomBits(std::mt19937_64& rng, size_t bits, double p) {
  Bitvector out(bits);
  std::geometric_distribution<size_t> gap(p);
  for (size_t bit = gap(rng); bit < bits; bit += 1 + gap(rng)) out.Set(bit);
  return out;
}

// The fold against both references: the pairwise WAH OR and inflate-then-OR.
void ExpectOrFoldMatchesReferences(const std::vector<WahBitvector>& wah,
                                   const std::string& ctx) {
  WahBitvector pairwise = wah[0];
  Bitvector inflated = wah[0].ToBitvector();
  for (size_t i = 1; i < wah.size(); ++i) {
    pairwise = WahBitvector::Or(pairwise, wah[i]);
    inflated.OrWith(wah[i].ToBitvector());
  }
  const Bitvector got = DenseOrOfMany(Pointers(wah));
  ASSERT_TRUE(got == inflated) << ctx;
  ASSERT_TRUE(got == pairwise.ToBitvector()) << ctx;
  ASSERT_TRUE(OrOfMany(wah) == pairwise) << ctx;
}

// Code words per 31-bit group: the number the fold's kernel rule reads.
double WordsPerGroup(const WahBitvector& w) {
  const size_t groups = (w.size() + 30) / 31;
  return static_cast<double>(w.code_words().size()) /
         static_cast<double>(groups);
}

// Densities on both sides of the kernel rule — near-all-fill (0.05%),
// fill/literal-mixed (0.4%, 2%) and all-literal (50%) — alone and mixed,
// over sizes that end inside a 64-group block, one bit either side of a
// block edge, and on it.
TEST(WahGroupFoldTest, DensitiesAcrossTheKernelRuleMatchReferences) {
  constexpr size_t kBlockBits = 31 * 64;
  const double densities[] = {0.0005, 0.004, 0.02, 0.5};
  std::mt19937_64 rng(20261020);
  bool saw_sparse = false, saw_mixed = false, saw_literal = false;
  for (size_t bits : {size_t{1000000}, size_t{3 * 65536 + 37},
                      kBlockBits * 3 - 1, kBlockBits * 3, kBlockBits * 3 + 1}) {
    for (size_t k : {1u, 2u, 13u}) {
      for (size_t d = 0; d <= std::size(densities); ++d) {
        // d == size(densities): every operand draws its own density.
        std::vector<WahBitvector> wah;
        for (size_t i = 0; i < k; ++i) {
          const double p = d < std::size(densities)
                               ? densities[d]
                               : densities[(i + bits) % std::size(densities)];
          wah.push_back(WahBitvector::FromBitvector(RandomBits(rng, bits, p)));
          const double r = WordsPerGroup(wah.back());
          saw_sparse |= r < 0.1;
          saw_mixed |= r > 0.3 && r < 0.9;
          saw_literal |= r == 1.0;
        }
        ExpectOrFoldMatchesReferences(
            wah, "bits=" + std::to_string(bits) + " k=" + std::to_string(k) +
                     " d=" + std::to_string(d));
      }
    }
  }
  EXPECT_TRUE(saw_sparse && saw_mixed && saw_literal)
      << "the grid no longer spans both sides of the kernel rule";
}

// Ones fills inside fill/literal-mixed operands: runs that cross a 64-group
// block edge (the group fold sets them straight in the accumulator, then
// ORs the packed blocks over them) and runs that end at num_bits.
TEST(WahGroupFoldTest, OnesFillsAcrossBlockEdgesAndToTheEnd) {
  constexpr size_t kBlockBits = 31 * 64;
  std::mt19937_64 rng(20261021);
  for (size_t bits : {kBlockBits * 5 - 1, kBlockBits * 5 + 1,
                      size_t{3 * 65536 + 37}}) {
    for (size_t k : {1u, 2u, 13u}) {
      std::vector<WahBitvector> wah;
      for (size_t i = 0; i < k; ++i) {
        Bitvector d = RandomBits(rng, bits, 0.02);
        // Group-aligned run over the edge of block 1 + i % 3.
        const size_t edge = kBlockBits * (1 + i % 3);
        for (size_t b = edge - 31 * (2 + i); b < edge + 31 * (3 + i); ++b) {
          d.Set(b);
        }
        // A run through the end; odd operands start it mid-group.
        for (size_t b = bits - 31 * 40 - (i % 2) * 7; b < bits; ++b) d.Set(b);
        wah.push_back(WahBitvector::FromBitvector(d));
        ASSERT_GT(WordsPerGroup(wah.back()), 0.3);
        ASSERT_LT(WordsPerGroup(wah.back()), 0.9);
      }
      ExpectOrFoldMatchesReferences(
          wah, "bits=" + std::to_string(bits) + " k=" + std::to_string(k));
    }
  }
}

// The group fold's per-thread scratch must come back all zero: a fold on
// the same thread right after a larger one, and one of a different size,
// sees none of the earlier operands' literals.
TEST(WahGroupFoldTest, BackToBackFoldsOnOneThreadStartFromZero) {
  std::mt19937_64 rng(20261022);
  const size_t kBits = 3 * 65536 + 37;
  std::vector<WahBitvector> first;
  for (int i = 0; i < 13; ++i) {
    first.push_back(WahBitvector::FromBitvector(RandomBits(rng, kBits, 0.02)));
  }
  ExpectOrFoldMatchesReferences(first, "first fold");
  for (size_t bits : {kBits, kBits - 31 * 64 - 5}) {
    std::vector<WahBitvector> second;
    for (int i = 0; i < 2; ++i) {
      second.push_back(
          WahBitvector::FromBitvector(RandomBits(rng, bits, 0.004)));
    }
    ExpectOrFoldMatchesReferences(second,
                                  "second fold bits=" + std::to_string(bits));
  }
}

}  // namespace
}  // namespace bix
