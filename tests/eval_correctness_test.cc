// Correctness of every evaluation algorithm against the scan oracle, and
// agreement of the instrumented scan counts with the cost model, across a
// parameterized sweep of base sequences, encodings and predicates.

#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/scan.h"
#include "core/bitmap_index.h"
#include "core/cost_model.h"
#include "core/eval.h"
#include "workload/queries.h"

#include "param_names.h"

namespace bix {
namespace {

struct SweepCase {
  std::vector<uint32_t> bases_msb;  // base sequence, paper notation
  uint32_t cardinality;
  bool with_nulls;
};

// Both encodings run inside each case, so the name carries the nulls flag.
std::string CaseName(const SweepCase& c) {
  return test::DesignName(c.bases_msb, c.cardinality) +
         (c.with_nulls ? "Nulls" : "");
}
void PrintTo(const SweepCase& c, std::ostream* os) { *os << CaseName(c); }

std::vector<uint32_t> MakeColumn(uint32_t cardinality, size_t n,
                                 bool with_nulls, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    if (with_nulls && rng() % 10 == 0) {
      values[i] = kNullValue;
    } else {
      values[i] = static_cast<uint32_t>(rng() % cardinality);
    }
  }
  return values;
}

class EvalSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EvalSweepTest, AllAlgorithmsMatchScanOracleAndModel) {
  const SweepCase& c = GetParam();
  const size_t n = 500;
  std::vector<uint32_t> values =
      MakeColumn(c.cardinality, n, c.with_nulls, 1234 + c.cardinality);
  BaseSequence base = BaseSequence::FromMsbFirst(c.bases_msb);
  ASSERT_TRUE(base.IsWellDefinedFor(c.cardinality));

  BitmapIndex range_index =
      BitmapIndex::Build(values, c.cardinality, base, Encoding::kRange);
  BitmapIndex equality_index =
      BitmapIndex::Build(values, c.cardinality, base, Encoding::kEquality);

  struct AlgUnderTest {
    const BitmapIndex* index;
    EvalAlgorithm algorithm;
    Encoding encoding;
  };
  const AlgUnderTest algs[] = {
      {&range_index, EvalAlgorithm::kRangeEval, Encoding::kRange},
      {&range_index, EvalAlgorithm::kRangeEvalOpt, Encoding::kRange},
      {&equality_index, EvalAlgorithm::kEqualityEval, Encoding::kEquality},
  };

  for (const Query& q : AllSelectionQueries(c.cardinality)) {
    Bitvector expected = ScanEvaluate(values, q.op, q.v);
    for (const AlgUnderTest& alg : algs) {
      EvalStats stats;
      Bitvector got = alg.index->Evaluate(alg.algorithm, q.op, q.v, &stats);
      ASSERT_EQ(got, expected)
          << "base=" << base.ToString() << " alg=" << ToString(alg.algorithm)
          << " op=" << ToString(q.op) << " v=" << q.v;
      // The instrumented scan count must equal the cost model's prediction.
      ASSERT_EQ(stats.bitmap_scans,
                ModelScans(base, c.cardinality, alg.encoding, alg.algorithm,
                           q.op, q.v))
          << "base=" << base.ToString() << " alg=" << ToString(alg.algorithm)
          << " op=" << ToString(q.op) << " v=" << q.v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, EvalSweepTest,
    ::testing::Values(
        // Single-component (Value-List / base-C) shapes.
        SweepCase{{7}, 7, false}, SweepCase{{7}, 7, true},
        SweepCase{{2}, 2, false}, SweepCase{{13}, 13, true},
        // The paper's Figure 3 / Figure 4 base-<3,3> example, C = 9.
        SweepCase{{3, 3}, 9, false}, SweepCase{{3, 3}, 9, true},
        // Bit-sliced (uniform base 2).
        SweepCase{{2, 2, 2, 2}, 16, false}, SweepCase{{2, 2, 2, 2}, 13, true},
        // Non-uniform, capacity larger than C.
        SweepCase{{4, 3, 5}, 55, true}, SweepCase{{5, 3, 4}, 60, false},
        // The paper's Section 3 example: 3-component base-10, C = 1000.
        SweepCase{{10, 10, 10}, 1000, false},
        // Time-optimal-like shape <2, 2, big>.
        SweepCase{{2, 2, 17}, 65, true},
        // Knee-like 2-component shape.
        SweepCase{{28, 36}, 1000, true},
        // Degenerate cardinality 1 (every value 0).
        SweepCase{{2}, 1, true}),
    test::ParamName<SweepCase>);

TEST(EvalEdgeCaseTest, OutOfDomainConstants) {
  std::vector<uint32_t> values = MakeColumn(9, 200, true, 99);
  BaseSequence base = BaseSequence::FromMsbFirst({3, 3});
  for (Encoding enc : {Encoding::kRange, Encoding::kEquality}) {
    BitmapIndex index = BitmapIndex::Build(values, 9, base, enc);
    for (int64_t v : {int64_t{-5}, int64_t{-1}, int64_t{9}, int64_t{100}}) {
      for (CompareOp op : kAllCompareOps) {
        EvalStats stats;
        Bitvector got = index.Evaluate(op, v, &stats);
        EXPECT_EQ(got, ScanEvaluate(values, op, v))
            << ToString(enc) << " " << ToString(op) << " " << v;
        EXPECT_EQ(stats.bitmap_scans, 0) << "trivial results scan nothing";
      }
    }
  }
}

TEST(EvalEdgeCaseTest, AllNullColumn) {
  std::vector<uint32_t> values(100, kNullValue);
  BaseSequence base = BaseSequence::FromMsbFirst({3, 3});
  BitmapIndex index = BitmapIndex::Build(values, 9, base, Encoding::kRange);
  for (CompareOp op : kAllCompareOps) {
    EXPECT_TRUE(index.Evaluate(op, 4).None()) << ToString(op);
  }
}

TEST(EvalEdgeCaseTest, AlgorithmEncodingMismatchIsRejected) {
  std::vector<uint32_t> values = MakeColumn(9, 50, false, 5);
  BaseSequence base = BaseSequence::FromMsbFirst({3, 3});
  BitmapIndex range_index = BitmapIndex::Build(values, 9, base, Encoding::kRange);
  EXPECT_DEATH(
      range_index.Evaluate(EvalAlgorithm::kEqualityEval, CompareOp::kLe, 3),
      "EqualityEval");
}

TEST(EvalEdgeCaseTest, RangeEvalAndOptAlwaysAgree) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    int n = 1 + static_cast<int>(rng() % 4);
    std::vector<uint32_t> bases;
    uint64_t capacity = 1;
    for (int i = 0; i < n; ++i) {
      uint32_t b = 2 + static_cast<uint32_t>(rng() % 8);
      bases.push_back(b);
      capacity *= b;
    }
    uint32_t cardinality = static_cast<uint32_t>(
        1 + rng() % capacity);  // C anywhere in [1, capacity]
    std::vector<uint32_t> values = MakeColumn(cardinality, 300, true, rng());
    BitmapIndex index =
        BitmapIndex::Build(values, cardinality,
                           BaseSequence::FromLsbFirst(bases), Encoding::kRange);
    for (const Query& q : AllSelectionQueries(cardinality)) {
      Bitvector a = index.Evaluate(EvalAlgorithm::kRangeEval, q.op, q.v);
      Bitvector b = index.Evaluate(EvalAlgorithm::kRangeEvalOpt, q.op, q.v);
      ASSERT_EQ(a, b) << ToString(q.op) << " " << q.v;
    }
  }
}

}  // namespace
}  // namespace bix
