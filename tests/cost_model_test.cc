// Validates the cost model: the re-derived closed forms equal exact
// enumeration whenever C equals the decomposition capacity, exact
// enumeration equals measured average scan counts of the instrumented
// algorithms, and the space formulas match built indexes.

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/bitmap_index.h"
#include "core/cost_model.h"
#include "workload/generators.h"
#include "workload/queries.h"

#include "param_names.h"

namespace bix {
namespace {

struct ModelCase {
  std::vector<uint32_t> bases_msb;
  uint32_t cardinality;
};

std::string CaseName(const ModelCase& c) {
  return test::DesignName(c.bases_msb, c.cardinality);
}
void PrintTo(const ModelCase& c, std::ostream* os) { *os << CaseName(c); }

class CostModelSweep : public ::testing::TestWithParam<ModelCase> {};

TEST_P(CostModelSweep, SpaceFormulasMatchBuiltIndexes) {
  const ModelCase& c = GetParam();
  BaseSequence base = BaseSequence::FromMsbFirst(c.bases_msb);
  std::vector<uint32_t> values = GenerateUniform(100, c.cardinality, 3);
  for (Encoding enc : {Encoding::kRange, Encoding::kEquality}) {
    BitmapIndex index = BitmapIndex::Build(values, c.cardinality, base, enc);
    EXPECT_EQ(index.TotalStoredBitmaps(), SpaceInBitmaps(base, enc));
  }
}

TEST_P(CostModelSweep, AnalyticEqualsExactWhenCapacityMatches) {
  const ModelCase& c = GetParam();
  BaseSequence base = BaseSequence::FromMsbFirst(c.bases_msb);
  if (base.capacity() != c.cardinality) {
    // Intentional: AnalyticTime's closed forms assume every digit
    // combination is a live attribute value, i.e. capacity(base) == C.
    // For non-tight bases the top component is partially populated and the
    // identity does not hold; those designs are covered by the exact model
    // in ExactTimeEqualsMeasuredAverage instead.
    GTEST_SKIP() << "analytic identity requires capacity == cardinality "
                    "(non-tight base covered by the exact-model tests)";
  }
  for (auto [enc, alg] :
       {std::pair{Encoding::kRange, EvalAlgorithm::kRangeEvalOpt},
        std::pair{Encoding::kRange, EvalAlgorithm::kRangeEval},
        std::pair{Encoding::kEquality, EvalAlgorithm::kEqualityEval}}) {
    double analytic = AnalyticTime(base, enc, alg);
    double exact = ExactTime(base, c.cardinality, enc, alg);
    // The closed forms treat the w = v - 1 operators as digit-uniform; the
    // only discrepancy is the excluded w = C - 1 bound, an O(n/C) effect.
    double slack =
        2.0 * base.num_components() / static_cast<double>(c.cardinality);
    EXPECT_NEAR(analytic, exact, slack + 1e-9) << ToString(alg);
  }
}

TEST_P(CostModelSweep, ExactTimeEqualsMeasuredAverage) {
  const ModelCase& c = GetParam();
  BaseSequence base = BaseSequence::FromMsbFirst(c.bases_msb);
  std::vector<uint32_t> values = GenerateUniform(200, c.cardinality, 5);
  for (auto [enc, alg] :
       {std::pair{Encoding::kRange, EvalAlgorithm::kRangeEvalOpt},
        std::pair{Encoding::kRange, EvalAlgorithm::kRangeEval},
        std::pair{Encoding::kEquality, EvalAlgorithm::kEqualityEval}}) {
    BitmapIndex index = BitmapIndex::Build(values, c.cardinality, base, enc);
    EvalStats stats;
    std::vector<Query> queries = AllSelectionQueries(c.cardinality);
    for (const Query& q : queries) index.Evaluate(alg, q.op, q.v, &stats);
    double measured = static_cast<double>(stats.bitmap_scans) /
                      static_cast<double>(queries.size());
    EXPECT_NEAR(measured, ExactTime(base, c.cardinality, enc, alg), 1e-9)
        << ToString(alg);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bases, CostModelSweep,
    ::testing::Values(ModelCase{{9}, 9}, ModelCase{{3, 3}, 9},
                      ModelCase{{2, 2, 2, 2}, 16}, ModelCase{{10, 10}, 100},
                      ModelCase{{4, 5, 5}, 100}, ModelCase{{2, 2, 17}, 65},
                      ModelCase{{28, 36}, 1000}, ModelCase{{10, 10, 10}, 1000},
                      ModelCase{{5, 3, 4}, 47}, ModelCase{{13}, 13},
                      ModelCase{{6, 7}, 40}),
    test::ParamName<ModelCase>);

TEST(CostModelTest, RangeEncodedClosedForms) {
  // Hand-checked instances of the re-derived formulas.
  BaseSequence single = BaseSequence::FromMsbFirst({1000});
  EXPECT_NEAR(AnalyticTime(single, Encoding::kRange),
              (4.0 / 3.0) * (1.0 - 1.0 / 1000.0), 1e-12);
  EXPECT_NEAR(AnalyticTime(single, Encoding::kRange, EvalAlgorithm::kRangeEval),
              2.0 * (1.0 - 1.0 / 1000.0), 1e-12);

  BaseSequence b10 = BaseSequence::FromMsbFirst({10, 10, 10});
  EXPECT_NEAR(AnalyticTime(b10, Encoding::kRange),
              2.0 * (3 - 0.3) - (2.0 / 3.0) * 0.9, 1e-12);
}

TEST(CostModelTest, SpaceFormulas) {
  BaseSequence base = BaseSequence::FromMsbFirst({2, 3, 9});
  EXPECT_EQ(SpaceInBitmaps(base, Encoding::kRange), 1 + 2 + 8);
  // Equality: base-2 components store one bitmap, others store b.
  EXPECT_EQ(SpaceInBitmaps(base, Encoding::kEquality), 1 + 3 + 9);
}

TEST(CostModelTest, SplittingAComponentAlwaysCostsTime) {
  // Theorem 6.1(4) flavor: replacing one component of base b1*b2 by two
  // components <b2, b1> trades space for time — the split index is always
  // slower.  (Monotonicity of the optimal families themselves is covered
  // in advisor_test.cc.)
  for (auto [b2, b1] : {std::pair{2u, 2u}, std::pair{2u, 500u},
                        std::pair{10u, 10u}, std::pair{32u, 32u},
                        std::pair{7u, 13u}}) {
    BaseSequence merged = BaseSequence::FromMsbFirst({b1 * b2});
    BaseSequence split = BaseSequence::FromLsbFirst({b1, b2});
    EXPECT_GT(AnalyticTime(split, Encoding::kRange),
              AnalyticTime(merged, Encoding::kRange))
        << b2 << "x" << b1;
    EXPECT_LE(SpaceInBitmaps(split, Encoding::kRange),
              SpaceInBitmaps(merged, Encoding::kRange));
  }
}

TEST(CostModelTest, ComponentOrderMattersOnlyThroughComponent1) {
  // Closed-form Time depends on the multiset plus which base sits at the
  // least-significant component; larger b_1 is faster.
  BaseSequence big_first = BaseSequence::FromLsbFirst({36, 28});
  BaseSequence small_first = BaseSequence::FromLsbFirst({28, 36});
  EXPECT_LT(AnalyticTime(big_first, Encoding::kRange),
            AnalyticTime(small_first, Encoding::kRange));
}

TEST(CostModelTest, RangeBeatsEqualityOnRangeHeavyWorkloads) {
  // Section 5's headline: range encoding offers a better time for the same
  // decomposition at (slightly) smaller space.
  for (uint32_t c : {25u, 100u, 1000u}) {
    BaseSequence base = BaseSequence::SingleComponent(c);
    EXPECT_LT(AnalyticTime(base, Encoding::kRange),
              AnalyticTime(base, Encoding::kEquality))
        << c;
    EXPECT_LE(SpaceInBitmaps(base, Encoding::kRange),
              SpaceInBitmaps(base, Encoding::kEquality));
  }
}

TEST(CostModelTest, UniformMixReproducesAnalyticTime) {
  for (auto bases : {std::vector<uint32_t>{1000}, std::vector<uint32_t>{28, 36},
                     std::vector<uint32_t>{10, 10, 10},
                     std::vector<uint32_t>{2, 2, 2, 2}}) {
    BaseSequence base = BaseSequence::FromMsbFirst(bases);
    for (Encoding enc : {Encoding::kRange, Encoding::kEquality}) {
      EXPECT_NEAR(AnalyticTimeForMix(base, enc, WorkloadMix::Uniform()),
                  AnalyticTime(base, enc), 1e-12)
          << base.ToString();
    }
  }
}

TEST(CostModelTest, MixExtremesMatchPerClassCosts) {
  BaseSequence single = BaseSequence::FromMsbFirst({100});
  // Equality-only workload: an equality-encoded Value-List index costs one
  // scan per query; the range-encoded one needs its two-bitmap XOR.
  EXPECT_NEAR(AnalyticTimeForMix(single, Encoding::kEquality,
                                 WorkloadMix::EqualityOnly()),
              1.0, 1e-12);
  EXPECT_NEAR(AnalyticTimeForMix(single, Encoding::kRange,
                                 WorkloadMix::EqualityOnly()),
              2.0 - 2.0 / 100, 1e-12);
  // Range-only workload: range encoding needs (1 - 1/C) scans.
  EXPECT_NEAR(AnalyticTimeForMix(single, Encoding::kRange,
                                 WorkloadMix::RangeOnly()),
              1.0 - 1.0 / 100, 1e-12);
}

TEST(CostModelTest, EncodingPreferenceFlipsWithTheMix) {
  BaseSequence single = BaseSequence::FromMsbFirst({100});
  // Key-lookup workloads prefer equality encoding; interval workloads
  // prefer range encoding — the motivation for keeping both schemes.
  EXPECT_LT(AnalyticTimeForMix(single, Encoding::kEquality,
                               WorkloadMix::EqualityOnly()),
            AnalyticTimeForMix(single, Encoding::kRange,
                               WorkloadMix::EqualityOnly()));
  EXPECT_LT(AnalyticTimeForMix(single, Encoding::kRange,
                               WorkloadMix::RangeOnly()),
            AnalyticTimeForMix(single, Encoding::kEquality,
                               WorkloadMix::RangeOnly()));
}

TEST(CostModelTest, RangeEncodedTimeFallsAsWorkloadsGetMoreRangeHeavy) {
  BaseSequence base = BaseSequence::FromMsbFirst({10, 10});
  double prev = std::numeric_limits<double>::infinity();
  for (double f = 0; f <= 1.0001; f += 0.125) {
    double t = AnalyticTimeForMix(base, Encoding::kRange,
                                  WorkloadMix{std::min(f, 1.0)});
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(CostModelTest, ModelScansForTrivialQueriesIsZero) {
  BaseSequence base = BaseSequence::FromMsbFirst({3, 3});
  EXPECT_EQ(ModelScans(base, 9, Encoding::kRange, EvalAlgorithm::kRangeEvalOpt,
                       CompareOp::kLt, 0),
            0);
  EXPECT_EQ(ModelScans(base, 9, Encoding::kRange, EvalAlgorithm::kRangeEvalOpt,
                       CompareOp::kGe, 0),
            0);
  EXPECT_EQ(ModelScans(base, 9, Encoding::kRange, EvalAlgorithm::kRangeEvalOpt,
                       CompareOp::kEq, -3),
            0);
  EXPECT_EQ(ModelScans(base, 9, Encoding::kRange, EvalAlgorithm::kRangeEvalOpt,
                       CompareOp::kLe, 99),
            0);
}

}  // namespace
}  // namespace bix
