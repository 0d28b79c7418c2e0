// WAH compressed bitvector: round trips, canonical encodings, compressed
// logical operations against the dense reference, and compression behavior
// across densities.

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/wah_bitvector.h"

namespace bix {
namespace {

Bitvector RandomDense(size_t bits, double density, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0, 1);
  Bitvector out(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (uni(rng) < density) out.Set(i);
  }
  return out;
}

size_t NaiveCount(const Bitvector& bv) {
  size_t count = 0;
  for (size_t i = 0; i < bv.size(); ++i) count += bv.Get(i) ? 1 : 0;
  return count;
}

struct WahCase {
  size_t bits;
  double density;
};

class WahSweepTest : public ::testing::TestWithParam<WahCase> {};

TEST_P(WahSweepTest, RoundTripAndOpsMatchDense) {
  const auto& [bits, density] = GetParam();
  Bitvector a = RandomDense(bits, density, 1 + bits);
  Bitvector b = RandomDense(bits, density / 2 + 0.01, 99 + bits);
  WahBitvector wa = WahBitvector::FromBitvector(a);
  WahBitvector wb = WahBitvector::FromBitvector(b);

  EXPECT_EQ(wa.ToBitvector(), a);
  EXPECT_EQ(wa.size(), a.size());
  EXPECT_EQ(wa.Count(), NaiveCount(a));

  EXPECT_EQ(WahBitvector::And(wa, wb).ToBitvector(), a & b);
  EXPECT_EQ(WahBitvector::Or(wa, wb).ToBitvector(), a | b);
  EXPECT_EQ(WahBitvector::Xor(wa, wb).ToBitvector(), a ^ b);
  Bitvector andnot = a;
  andnot.AndNotWith(b);
  EXPECT_EQ(WahBitvector::AndNot(wa, wb).ToBitvector(), andnot);
  EXPECT_EQ(wa.Not().ToBitvector(), ~a);
  EXPECT_EQ(wa.Not().Count(), bits - a.Count());
}

TEST_P(WahSweepTest, AndCountMatchesMaterializedAnd) {
  const auto& [bits, density] = GetParam();
  Bitvector a = RandomDense(bits, density, 21 + bits);
  Bitvector b = RandomDense(bits, density / 3 + 0.005, 22 + bits);
  WahBitvector wa = WahBitvector::FromBitvector(a);
  WahBitvector wb = WahBitvector::FromBitvector(b);
  EXPECT_EQ(WahBitvector::AndCount(wa, wb), NaiveCount(a & b));
  EXPECT_EQ(WahBitvector::AndCount(wa, wb),
            WahBitvector::And(wa, wb).Count());
  // The k-ary results count the same bits.
  const WahBitvector* ops[] = {&wa, &wb};
  EXPECT_EQ(WahBitvector::AndOfMany(ops).Count(), NaiveCount(a & b));
  EXPECT_EQ(WahBitvector::OrOfMany(ops).Count(), NaiveCount(a | b));
}

TEST_P(WahSweepTest, OpsProduceCanonicalEncodings) {
  const auto& [bits, density] = GetParam();
  Bitvector a = RandomDense(bits, density, 7 + bits);
  Bitvector b = RandomDense(bits, density, 8 + bits);
  // Result of a compressed op equals compressing the dense result.
  WahBitvector via_ops =
      WahBitvector::And(WahBitvector::FromBitvector(a),
                        WahBitvector::FromBitvector(b));
  EXPECT_TRUE(via_ops == WahBitvector::FromBitvector(a & b));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WahSweepTest,
    ::testing::Values(WahCase{0, 0}, WahCase{1, 1.0}, WahCase{30, 0.5},
                      WahCase{31, 0.5}, WahCase{32, 0.5}, WahCase{62, 0.9},
                      WahCase{1000, 0.001}, WahCase{1000, 0.5},
                      WahCase{100000, 0.0005}, WahCase{100000, 0.02},
                      WahCase{100000, 0.98}));

TEST(WahBitvectorTest, SparseVectorsCompress) {
  Bitvector sparse(1 << 20);
  for (size_t i = 0; i < sparse.size(); i += 50000) sparse.Set(i);
  WahBitvector wah = WahBitvector::FromBitvector(sparse);
  EXPECT_LT(wah.SizeInBytes(), size_t{2000});
  EXPECT_EQ(wah.ToBitvector(), sparse);

  Bitvector all_ones = Bitvector::Ones(1 << 20);
  EXPECT_LE(WahBitvector::FromBitvector(all_ones).SizeInBytes(), size_t{8});
}

TEST(WahBitvectorTest, DenseRandomDataCostsAtMostOneWordPerGroup) {
  Bitvector noisy = RandomDense(310000, 0.5, 5);
  WahBitvector wah = WahBitvector::FromBitvector(noisy);
  EXPECT_LE(wah.code_words().size(), 310000 / 31 + 1);
}

TEST(WahBitvectorTest, FillRunsMergeAcrossAppends) {
  Bitvector zeros(31 * 100);
  WahBitvector wah = WahBitvector::FromBitvector(zeros);
  EXPECT_EQ(wah.code_words().size(), 1u);  // one fill word covers all groups
}

TEST(WahBitvectorTest, NotOnPartialTailKeepsTailClear) {
  Bitvector dense(40);  // 31 + 9 bits: partial final group
  WahBitvector wah = WahBitvector::FromBitvector(dense);
  WahBitvector inverted = wah.Not();
  EXPECT_EQ(inverted.Count(), 40u);
  EXPECT_EQ(inverted.ToBitvector(), Bitvector::Ones(40));
  // Double negation is the identity, encoding included.
  EXPECT_TRUE(inverted.Not() == wah);
}

// Run-structured data (long fills interleaved with literals) drives the
// fill x fill overlap arithmetic that dense-random inputs rarely reach.
Bitvector RandomRuns(size_t bits, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Bitvector out(bits);
  size_t i = 0;
  bool value = (rng() & 1) != 0;
  while (i < bits) {
    size_t run = 1 + rng() % 200;  // spans several 31-bit groups
    if (value) {
      for (size_t j = i; j < i + run && j < bits; ++j) out.Set(j);
    }
    i += run;
    value = !value;
  }
  return out;
}

TEST(WahBitvectorTest, AndCountRandomizedDifferential) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const size_t bits = 500 + (seed * 7919) % 5000;
    Bitvector a = RandomRuns(bits, 2 * seed + 1);
    Bitvector b = RandomRuns(bits, 2 * seed + 2);
    WahBitvector wa = WahBitvector::FromBitvector(a);
    WahBitvector wb = WahBitvector::FromBitvector(b);
    ASSERT_EQ(WahBitvector::AndCount(wa, wb), (a & b).Count())
        << "seed " << seed << " bits " << bits;
  }
}

TEST(WahBitvectorTest, MismatchedSizesAbort) {
  WahBitvector a = WahBitvector::FromBitvector(Bitvector(10));
  WahBitvector b = WahBitvector::FromBitvector(Bitvector(11));
  EXPECT_DEATH(WahBitvector::And(a, b), "num_bits");
}

}  // namespace
}  // namespace bix
