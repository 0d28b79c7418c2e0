#include "bitmap/bitvector.h"

#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/bitvector_kernels.h"

namespace bix {
namespace {

TEST(BitvectorTest, DefaultIsEmpty) {
  Bitvector bv;
  EXPECT_EQ(bv.size(), 0u);
  EXPECT_TRUE(bv.empty());
  EXPECT_TRUE(bv.None());
  EXPECT_TRUE(bv.All());
}

TEST(BitvectorTest, ZerosAndOnes) {
  Bitvector zeros = Bitvector::Zeros(100);
  EXPECT_EQ(zeros.Count(), 0u);
  EXPECT_TRUE(zeros.None());
  EXPECT_FALSE(zeros.All());

  Bitvector ones = Bitvector::Ones(100);
  EXPECT_EQ(ones.Count(), 100u);
  EXPECT_TRUE(ones.All());
  EXPECT_TRUE(ones.Any());
}

TEST(BitvectorTest, SetAndGet) {
  Bitvector bv(130);
  bv.Set(0);
  bv.Set(63);
  bv.Set(64);
  bv.Set(129);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(63));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(129));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_FALSE(bv.Get(128));
  EXPECT_EQ(bv.Count(), 4u);
  bv.Set(63, false);
  EXPECT_FALSE(bv.Get(63));
  EXPECT_EQ(bv.Count(), 3u);
}

TEST(BitvectorTest, NotClearsTailBits) {
  // NOT on a non-word-multiple length must not leak set bits past size().
  Bitvector bv(70);
  bv.NotInPlace();
  EXPECT_EQ(bv.Count(), 70u);
  EXPECT_TRUE(bv.All());
  bv.NotInPlace();
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitvectorTest, LogicalOpsMatchScalarSemantics) {
  std::mt19937_64 rng(7);
  const size_t n = 257;
  std::vector<bool> a_ref(n), b_ref(n);
  Bitvector a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a_ref[i] = rng() & 1;
    b_ref[i] = rng() & 1;
    if (a_ref[i]) a.Set(i);
    if (b_ref[i]) b.Set(i);
  }
  Bitvector and_v = a & b;
  Bitvector or_v = a | b;
  Bitvector xor_v = a ^ b;
  Bitvector not_v = ~a;
  Bitvector andnot_v = a;
  andnot_v.AndNotWith(b);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(and_v.Get(i), a_ref[i] && b_ref[i]) << i;
    EXPECT_EQ(or_v.Get(i), a_ref[i] || b_ref[i]) << i;
    EXPECT_EQ(xor_v.Get(i), a_ref[i] != b_ref[i]) << i;
    EXPECT_EQ(not_v.Get(i), !a_ref[i]) << i;
    EXPECT_EQ(andnot_v.Get(i), a_ref[i] && !b_ref[i]) << i;
  }
}

TEST(BitvectorTest, NextSetBit) {
  Bitvector bv(200);
  bv.Set(5);
  bv.Set(64);
  bv.Set(199);
  EXPECT_EQ(bv.NextSetBit(0), 5u);
  EXPECT_EQ(bv.NextSetBit(5), 5u);
  EXPECT_EQ(bv.NextSetBit(6), 64u);
  EXPECT_EQ(bv.NextSetBit(65), 199u);
  EXPECT_EQ(bv.NextSetBit(200), 200u);
  EXPECT_EQ(Bitvector(64).NextSetBit(0), 64u);
}

TEST(BitvectorTest, ForEachSetBitAndIndices) {
  Bitvector bv(150);
  std::vector<uint32_t> expected = {0, 1, 63, 64, 65, 127, 149};
  for (uint32_t i : expected) bv.Set(i);
  EXPECT_EQ(bv.ToSetBitIndices(), expected);
  std::vector<uint32_t> seen;
  bv.ForEachSetBit([&](size_t i) { seen.push_back(static_cast<uint32_t>(i)); });
  EXPECT_EQ(seen, expected);
}

TEST(BitvectorTest, BytesRoundTrip) {
  std::mt19937_64 rng(11);
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
    Bitvector bv(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng() & 1) bv.Set(i);
    }
    std::vector<uint8_t> bytes = bv.ToBytes();
    EXPECT_EQ(bytes.size(), (n + 7) / 8);
    Bitvector back = Bitvector::FromBytes(bytes, n);
    EXPECT_EQ(back, bv) << "n=" << n;
  }
}

// The byte image is the on-disk format of every stored bitmap: bit i lives
// in byte i / 8 at bit i % 8, and the last byte carries only the bits below
// num_bits.  Pattern: bit i set iff i % 3 == 0, plus the last bit.
TEST(BitvectorTest, ToBytesMatchesGoldenLayout) {
  const std::vector<std::pair<size_t, std::vector<uint8_t>>> golden = {
      {0, {}},
      {1, {0x01}},
      {7, {0x49}},
      {8, {0xc9}},
      {9, {0x49, 0x01}},
      {63, {0x49, 0x92, 0x24, 0x49, 0x92, 0x24, 0x49, 0x52}},
      {64, {0x49, 0x92, 0x24, 0x49, 0x92, 0x24, 0x49, 0x92}},
      {65, {0x49, 0x92, 0x24, 0x49, 0x92, 0x24, 0x49, 0x92, 0x01}},
      {130, {0x49, 0x92, 0x24, 0x49, 0x92, 0x24, 0x49, 0x92, 0x24, 0x49,
             0x92, 0x24, 0x49, 0x92, 0x24, 0x49, 0x02}},
  };
  for (const auto& [n, bytes] : golden) {
    Bitvector bv(n);
    for (size_t i = 0; i < n; ++i) {
      if (i % 3 == 0 || i + 1 == n) bv.Set(i);
    }
    EXPECT_EQ(bv.ToBytes(), bytes) << "n=" << n;
    EXPECT_EQ(Bitvector::FromBytes(bytes, n), bv) << "n=" << n;
  }
}

// Bits past num_bits in the last byte (and bytes past the image) are
// garbage to FromBytes: they must not leak into Count, All or ==.
TEST(BitvectorTest, FromBytesDropsBitsPastLength) {
  const std::vector<uint8_t> ones(20, 0xff);
  for (size_t n : {1u, 7u, 9u, 63u, 65u, 130u}) {
    Bitvector bv = Bitvector::FromBytes(ones, n);
    EXPECT_EQ(bv.size(), n);
    EXPECT_EQ(bv.Count(), n) << "n=" << n;
    EXPECT_TRUE(bv.All()) << "n=" << n;
    EXPECT_EQ(bv, Bitvector::Ones(n)) << "n=" << n;
    EXPECT_EQ(bv.ToBytes(), Bitvector::Ones(n).ToBytes()) << "n=" << n;
  }
  // Garbage above a zero image: the result is still all zeros.
  const std::vector<uint8_t> tail_garbage = {0x00, 0xfe};  // bits 9..15
  Bitvector nine = Bitvector::FromBytes(tail_garbage, 9);
  EXPECT_EQ(nine.Count(), 0u);
  EXPECT_FALSE(nine.Any());
  EXPECT_EQ(nine, Bitvector::Zeros(9));
}

TEST(BitvectorTest, EqualityIncludesLength) {
  Bitvector a(10), b(11);
  EXPECT_FALSE(a == b);
  Bitvector c(10);
  EXPECT_TRUE(a == c);
  c.Set(3);
  EXPECT_FALSE(a == c);
}

size_t NaivePopCount(uint64_t x) {
  size_t count = 0;
  for (int i = 0; i < 64; ++i) count += (x >> i) & 1;
  return count;
}

size_t NaiveCount(const Bitvector& bv) {
  size_t count = 0;
  for (size_t i = 0; i < bv.size(); ++i) count += bv.Get(i) ? 1 : 0;
  return count;
}

TEST(BitvectorTest, PopCount64MatchesBitLoop) {
  std::vector<uint64_t> words = {0,
                                 ~uint64_t{0},
                                 uint64_t{1},
                                 uint64_t{1} << 63,
                                 0x5555555555555555ULL,
                                 0xAAAAAAAAAAAAAAAAULL,
                                 0x00000000FFFFFFFFULL,
                                 0x8000000000000001ULL};
  std::mt19937_64 rng(2024);
  for (int i = 0; i < 1000; ++i) words.push_back(rng() & rng());
  for (int i = 0; i < 1000; ++i) words.push_back(rng());
  for (uint64_t w : words) {
    EXPECT_EQ(static_cast<size_t>(PopCount64(w)), NaivePopCount(w)) << w;
  }
}

TEST(BitvectorTest, CountAcrossManyWords) {
  Bitvector bv(64 * 10);
  size_t expected = 0;
  for (size_t i = 0; i < bv.size(); i += 3) {
    bv.Set(i);
    ++expected;
  }
  EXPECT_EQ(bv.Count(), expected);
  // All-ones and NOT on lengths that are not a multiple of 64.
  for (size_t bits : {size_t{1}, size_t{63}, size_t{65}, size_t{1000}}) {
    EXPECT_EQ(Bitvector::Ones(bits).Count(), bits);
    Bitvector sparse(bits);
    for (size_t i = 0; i < bits; i += 7) sparse.Set(i);
    EXPECT_EQ((~sparse).Count(), NaiveCount(~sparse)) << bits;
  }
}

// Count-kernel cross-check fixtures: every length seam of the four-word
// unrolled hardware loop (0..4 words, ±1 bit around 3, 4 and 5 words, and a
// 1M-bit foundset with a ragged tail) at densities 0, sparse, half and all
// ones.  The all-ones and complemented vectors end in masked tail words.
std::vector<Bitvector> CountKernelFixtures() {
  const std::vector<size_t> lengths = {0,   1,   63,  64,  65,  191, 192,
                                       193, 255, 256, 257, 319, 320, 321,
                                       (size_t{1} << 20) + 37};
  std::vector<Bitvector> out;
  std::mt19937_64 rng(23);
  for (size_t bits : lengths) {
    out.push_back(Bitvector::Zeros(bits));
    Bitvector sparse(bits);
    for (size_t i = 0; i < bits; ++i) {
      if (rng() % 97 == 0) sparse.Set(i);
    }
    out.push_back(sparse);
    out.push_back(~sparse);
    Bitvector half(bits);
    for (size_t i = 0; i < bits; ++i) {
      if (rng() & 1) half.Set(i);
    }
    out.push_back(std::move(half));
    out.push_back(Bitvector::Ones(bits));
  }
  return out;
}

TEST(BitvectorTest, PortableCountKernelMatchesBitLoop) {
  for (const Bitvector& bv : CountKernelFixtures()) {
    const size_t naive = NaiveCount(bv);
    EXPECT_EQ(popcount_internal::PortableCount(bv.words()), naive)
        << "bits=" << bv.size();
    EXPECT_EQ(bv.Count(), naive) << "bits=" << bv.size();
  }
}

TEST(BitvectorTest, HardwareCountKernelMatchesPortableAndBitLoop) {
  if (!popcount_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no popcnt; the portable kernel is the only implementation";
  }
  for (const Bitvector& bv : CountKernelFixtures()) {
    const size_t hw = popcount_internal::HardwareCount(bv.words());
    EXPECT_EQ(hw, popcount_internal::PortableCount(bv.words()))
        << "bits=" << bv.size();
    EXPECT_EQ(hw, NaiveCount(bv)) << "bits=" << bv.size();
  }
}

TEST(BitvectorTest, ReserveDoesNotChangeContentsOrLength) {
  Bitvector bv;
  bv.Reserve(1000);
  EXPECT_EQ(bv.size(), 0u);
  for (size_t i = 0; i < 130; ++i) bv.PushBack(i % 3 == 0);
  EXPECT_EQ(bv.size(), 130u);
  for (size_t i = 0; i < 130; ++i) {
    EXPECT_EQ(bv.Get(i), i % 3 == 0) << i;
  }
  // Reserving less than the current size is a no-op.
  bv.Reserve(10);
  EXPECT_EQ(bv.size(), 130u);
}

TEST(BitvectorTest, PushBackMatchesResizePlusSet) {
  std::mt19937_64 rng(404);
  Bitvector pushed;
  Bitvector preset(777);
  for (size_t i = 0; i < 777; ++i) {
    bool bit = rng() % 2 == 0;
    pushed.PushBack(bit);
    if (bit) preset.Set(i);
  }
  EXPECT_EQ(pushed, preset);
}

Bitvector RandomBits(size_t bits, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Bitvector out(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng() % 2 == 0) out.Set(i);
  }
  return out;
}

// Odd lengths around word boundaries; k = 1..6 operands.
TEST(BitvectorKernelsTest, FusedFoldsMatchPairwiseFolds) {
  for (size_t bits : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                      size_t{65}, size_t{1000}, size_t{70000}}) {
    std::vector<Bitvector> operands;
    for (int k = 1; k <= 6; ++k) {
      operands.push_back(RandomBits(bits, 31 * bits + static_cast<size_t>(k)));
      Bitvector and_fold = operands[0];
      for (size_t i = 1; i < operands.size(); ++i) {
        and_fold.AndWith(operands[i]);
      }
      std::vector<const Bitvector*> ptrs;
      for (const Bitvector& b : operands) ptrs.push_back(&b);
      EXPECT_EQ(Bitvector::AndOfMany(ptrs), and_fold) << bits << " k=" << k;
      // The value-span convenience agrees with the pointer form.
      EXPECT_EQ(AndOfMany(operands), and_fold) << bits << " k=" << k;
    }
  }
}

TEST(BitvectorKernelsTest, CountingKernelsMatchMaterializedOps) {
  for (size_t bits : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                      size_t{65}, size_t{1000}, size_t{12345}}) {
    Bitvector a = RandomBits(bits, 7 + bits);
    Bitvector b = RandomBits(bits, 11 + bits);
    EXPECT_EQ(a.Count(), NaiveCount(a)) << bits;
    EXPECT_EQ(Bitvector::CountAnd(a, b), NaiveCount(a & b)) << bits;
    EXPECT_EQ(Bitvector::CountOr(a, b), NaiveCount(a | b)) << bits;
    Bitvector andnot = a;
    andnot.AndNotWith(b);
    EXPECT_EQ(Bitvector::AndNotCount(a, b), NaiveCount(andnot)) << bits;
    // The complement's tail bits must not leak into AndNotCount.
    EXPECT_EQ(Bitvector::AndNotCount(Bitvector::Ones(bits), a),
              bits - NaiveCount(a))
        << bits;
  }
}

}  // namespace
}  // namespace bix
