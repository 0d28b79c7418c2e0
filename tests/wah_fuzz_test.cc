// Fuzz-style round-trip harness for the WAH codec and its run-at-a-time
// kernels.  Bit patterns are built from adversarial run segments — fills
// and literal noise with lengths chosen around the 31-bit group and 32/64
// word boundaries — then pushed through compress -> op -> decompress and
// checked against the dense reference, including the counting forms
// (Count, AndCount, and Count of the k-ary results) and the canonical-
// encoding invariant (equal bit contents always have equal code words).

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "bitmap/wah_kernels.h"

namespace bix {
namespace {

// Lengths that straddle the group size (31), the code-word size (32), and
// the dense backing-word size (64).
const size_t kEdgeLengths[] = {0,  1,  2,  29, 30, 31, 32, 33,
                               61, 62, 63, 64, 65, 92, 93, 124};

enum class Segment { kZeros, kOnes, kNoise, kAlternating };

Bitvector BuildPattern(std::mt19937_64& rng, size_t target_bits) {
  Bitvector out(target_bits);
  size_t bit = 0;
  while (bit < target_bits) {
    size_t len = rng() % 3 == 0 ? 1 + rng() % 200
                                : kEdgeLengths[rng() % 16];
    len = std::min(len, target_bits - bit);
    if (len == 0) len = 1;
    switch (static_cast<Segment>(rng() % 4)) {
      case Segment::kZeros:
        break;
      case Segment::kOnes:
        for (size_t i = 0; i < len; ++i) out.Set(bit + i);
        break;
      case Segment::kNoise:
        for (size_t i = 0; i < len; ++i) {
          if (rng() & 1) out.Set(bit + i);
        }
        break;
      case Segment::kAlternating:
        // Alternating full groups: ones-fill, zeros-fill, ones-fill, ...
        for (size_t i = 0; i < len; ++i) {
          if (((bit + i) / 31) % 2 == 0) out.Set(bit + i);
        }
        break;
    }
    bit += len;
  }
  return out;
}

// Every encoding the codec emits must be canonical: re-compressing the
// decompressed bits reproduces it exactly.
void ExpectCanonical(const WahBitvector& w, const std::string& what) {
  EXPECT_TRUE(WahBitvector::FromBitvector(w.ToBitvector()) == w)
      << what << ": non-canonical encoding (size=" << w.size() << ")";
}

TEST(WahFuzzTest, RoundTrip) {
  std::mt19937_64 rng(20260801);
  for (size_t len : kEdgeLengths) {
    for (int rep = 0; rep < 8; ++rep) {
      Bitvector dense = BuildPattern(rng, len);
      WahBitvector wah = WahBitvector::FromBitvector(dense);
      EXPECT_TRUE(wah.ToBitvector() == dense) << "len=" << len;
      EXPECT_EQ(wah.Count(), dense.Count()) << "len=" << len;
      ExpectCanonical(wah, "round-trip len=" + std::to_string(len));
    }
  }
  for (int rep = 0; rep < 200; ++rep) {
    size_t len = rng() % 2048;
    Bitvector dense = BuildPattern(rng, len);
    WahBitvector wah = WahBitvector::FromBitvector(dense);
    ASSERT_TRUE(wah.ToBitvector() == dense) << "len=" << len;
    ASSERT_EQ(wah.Count(), dense.Count()) << "len=" << len;
    ExpectCanonical(wah, "round-trip len=" + std::to_string(len));
  }
}

TEST(WahFuzzTest, FillFactoryMatchesDense) {
  for (size_t len : kEdgeLengths) {
    for (bool value : {false, true}) {
      WahBitvector fill = WahBitvector::Fill(len, value);
      Bitvector dense(len, value);
      EXPECT_TRUE(fill.ToBitvector() == dense)
          << "len=" << len << " value=" << value;
      EXPECT_EQ(fill.Count(), value ? len : 0);
      ExpectCanonical(fill, "Fill len=" + std::to_string(len));
    }
  }
}

TEST(WahFuzzTest, BinaryOpsMatchDenseReference) {
  std::mt19937_64 rng(20260802);
  for (int rep = 0; rep < 300; ++rep) {
    size_t len = rep < 64 ? kEdgeLengths[rep % 16] : rng() % 1024;
    Bitvector da = BuildPattern(rng, len);
    Bitvector db = BuildPattern(rng, len);
    WahBitvector a = WahBitvector::FromBitvector(da);
    WahBitvector b = WahBitvector::FromBitvector(db);
    const std::string ctx = "len=" + std::to_string(len);

    Bitvector ref_and = da;
    ref_and.AndWith(db);
    Bitvector ref_or = da;
    ref_or.OrWith(db);
    Bitvector ref_xor = da;
    ref_xor.XorWith(db);
    Bitvector ref_not = da;
    ref_not.NotInPlace();
    Bitvector ref_andnot = da;
    {
      Bitvector nb = db;
      nb.NotInPlace();
      ref_andnot.AndWith(nb);
    }

    WahBitvector got_and = WahBitvector::And(a, b);
    WahBitvector got_or = WahBitvector::Or(a, b);
    WahBitvector got_xor = WahBitvector::Xor(a, b);
    WahBitvector got_andnot = WahBitvector::AndNot(a, b);
    WahBitvector got_not = a.Not();

    ASSERT_TRUE(got_and.ToBitvector() == ref_and) << ctx;
    ASSERT_TRUE(got_or.ToBitvector() == ref_or) << ctx;
    ASSERT_TRUE(got_xor.ToBitvector() == ref_xor) << ctx;
    ASSERT_TRUE(got_andnot.ToBitvector() == ref_andnot) << ctx;
    ASSERT_TRUE(got_not.ToBitvector() == ref_not) << ctx;
    ExpectCanonical(got_and, "And " + ctx);
    ExpectCanonical(got_or, "Or " + ctx);
    ExpectCanonical(got_xor, "Xor " + ctx);
    ExpectCanonical(got_andnot, "AndNot " + ctx);
    ExpectCanonical(got_not, "Not " + ctx);

    // Counting forms never materialize and must agree with the dense
    // popcounts, including the partial tail group.
    ASSERT_EQ(WahBitvector::AndCount(a, b), ref_and.Count()) << ctx;
  }
}

// AndCount with a ones-fill covering the final (partial) group: the fill x
// fill fast path must not count bits past num_bits.
TEST(WahFuzzTest, AndCountTailCases) {
  for (size_t len : {31u, 32u, 33u, 62u, 63u, 64u, 65u}) {
    Bitvector all(len, true);
    WahBitvector a = WahBitvector::FromBitvector(all);
    EXPECT_EQ(WahBitvector::AndCount(a, a), len) << "len=" << len;

    Bitvector tail_only(len);
    for (size_t i = (len / 31) * 31; i < len; ++i) tail_only.Set(i);
    WahBitvector t = WahBitvector::FromBitvector(tail_only);
    EXPECT_EQ(WahBitvector::AndCount(a, t), tail_only.Count())
        << "len=" << len;
    EXPECT_EQ(WahBitvector::AndCount(t, t), tail_only.Count())
        << "len=" << len;
  }
}

TEST(WahFuzzTest, KAryKernelsMatchDenseFold) {
  std::mt19937_64 rng(20260803);
  for (int rep = 0; rep < 120; ++rep) {
    size_t len = rep < 32 ? kEdgeLengths[rep % 16] : rng() % 700;
    size_t k = 1 + rng() % 6;
    std::vector<Bitvector> dense;
    std::vector<WahBitvector> wah;
    for (size_t i = 0; i < k; ++i) {
      dense.push_back(BuildPattern(rng, len));
      wah.push_back(WahBitvector::FromBitvector(dense.back()));
    }
    Bitvector ref_or(len);
    Bitvector ref_and(len, true);
    for (const Bitvector& d : dense) {
      ref_or.OrWith(d);
      ref_and.AndWith(d);
    }
    const std::string ctx =
        "len=" + std::to_string(len) + " k=" + std::to_string(k);

    WahBitvector got_or = OrOfMany(wah);
    WahBitvector got_and = AndOfMany(wah);
    ASSERT_TRUE(got_or.ToBitvector() == ref_or) << ctx;
    ASSERT_TRUE(got_and.ToBitvector() == ref_and) << ctx;
    ExpectCanonical(got_or, "OrOfMany " + ctx);
    ExpectCanonical(got_and, "AndOfMany " + ctx);
    ASSERT_EQ(got_or.Count(), ref_or.Count()) << ctx;
    ASSERT_EQ(got_and.Count(), ref_and.Count()) << ctx;
  }
}

// Fills straddling the 2^30-group fill-count ceiling force multi-word
// fills; keep this one modest (a few hundred MB of *logical* bits is only a
// handful of code words physically).
TEST(WahFuzzTest, LongFillRunsStayExact) {
  const size_t kBig = size_t{40} * 31 * 1000;  // many groups, tiny encoding
  WahBitvector ones = WahBitvector::Fill(kBig, true);
  WahBitvector zeros = WahBitvector::Fill(kBig, false);
  EXPECT_EQ(ones.Count(), kBig);
  EXPECT_EQ(zeros.Count(), 0u);
  EXPECT_EQ(WahBitvector::AndCount(ones, ones), kBig);
  EXPECT_EQ(WahBitvector::AndCount(ones, zeros), 0u);
  WahBitvector x = WahBitvector::Xor(ones, zeros);
  EXPECT_EQ(x.Count(), kBig);
  EXPECT_TRUE(x == ones);
  EXPECT_TRUE(zeros.Not() == ones);
  const WahBitvector* ops[] = {&ones, &zeros, &ones};
  EXPECT_EQ(WahBitvector::OrOfMany(ops).Count(), kBig);
  EXPECT_EQ(WahBitvector::AndOfMany(ops).Count(), 0u);
}

}  // namespace
}  // namespace bix
