// Bit-sliced aggregation: COUNT/SUM/AVG/MIN/MAX computed purely from index
// bitmaps must match scalar aggregation over the column, for every
// encoding and decomposition, including NULLs and empty foundsets.

#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/scan.h"
#include "core/aggregate.h"
#include "core/bitmap_index.h"
#include "workload/generators.h"

#include "param_names.h"

namespace bix {
namespace {

struct AggCase {
  std::vector<uint32_t> bases_msb;
  uint32_t cardinality;
  Encoding encoding;
};

std::string CaseName(const AggCase& c) {
  return test::DesignName(c.bases_msb, c.cardinality) +
         test::EncodingName(c.encoding);
}
void PrintTo(const AggCase& c, std::ostream* os) { *os << CaseName(c); }

class AggregateSweepTest : public ::testing::TestWithParam<AggCase> {};

TEST_P(AggregateSweepTest, MatchesScalarAggregation) {
  const AggCase& c = GetParam();
  std::vector<uint32_t> values =
      GenerateUniform(600, c.cardinality, 7 + c.cardinality);
  for (size_t i = 0; i < values.size(); i += 13) values[i] = kNullValue;
  BitmapIndex index = BitmapIndex::Build(
      values, c.cardinality, BaseSequence::FromMsbFirst(c.bases_msb),
      c.encoding);

  // Foundsets of various shapes, including predicates and raw masks.
  std::vector<Bitvector> foundsets;
  foundsets.push_back(Bitvector::Ones(values.size()));
  foundsets.push_back(Bitvector::Zeros(values.size()));
  foundsets.push_back(ScanEvaluate(values, CompareOp::kLe,
                                   c.cardinality / 2));
  foundsets.push_back(ScanEvaluate(values, CompareOp::kEq, 3));
  Bitvector stripes(values.size());
  for (size_t i = 0; i < values.size(); i += 3) stripes.Set(i);
  foundsets.push_back(stripes);

  for (const Bitvector& foundset : foundsets) {
    int64_t expected_count = 0;
    int64_t expected_sum = 0;
    std::optional<uint32_t> expected_min, expected_max;
    for (size_t r = 0; r < values.size(); ++r) {
      if (!foundset.Get(r) || values[r] == kNullValue) continue;
      ++expected_count;
      expected_sum += values[r];
      if (!expected_min || values[r] < *expected_min) expected_min = values[r];
      if (!expected_max || values[r] > *expected_max) expected_max = values[r];
    }

    EXPECT_EQ(CountAggregate(index, foundset), expected_count);
    EXPECT_EQ(SumAggregate(index, foundset), expected_sum);
    EXPECT_EQ(MinAggregate(index, foundset), expected_min);
    EXPECT_EQ(MaxAggregate(index, foundset), expected_max);

    std::vector<int64_t> expected_groups(c.cardinality, 0);
    for (size_t r = 0; r < values.size(); ++r) {
      if (foundset.Get(r) && values[r] != kNullValue) {
        ++expected_groups[values[r]];
      }
    }
    EXPECT_EQ(GroupedCounts(index, foundset), expected_groups);
    std::optional<double> avg = AvgAggregate(index, foundset);
    if (expected_count == 0) {
      EXPECT_FALSE(avg.has_value());
    } else {
      ASSERT_TRUE(avg.has_value());
      EXPECT_DOUBLE_EQ(*avg, static_cast<double>(expected_sum) /
                                 static_cast<double>(expected_count));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, AggregateSweepTest,
    ::testing::Values(
        AggCase{{2, 2, 2, 2, 2, 2}, 64, Encoding::kRange},   // bit-sliced
        AggCase{{2, 2, 2, 2, 2, 2}, 64, Encoding::kEquality},
        AggCase{{64}, 64, Encoding::kRange},                 // value-list
        AggCase{{64}, 64, Encoding::kEquality},
        AggCase{{4, 4, 4}, 64, Encoding::kRange},
        AggCase{{4, 4, 4}, 64, Encoding::kEquality},
        AggCase{{5, 13}, 63, Encoding::kRange},              // capacity > C
        AggCase{{5, 13}, 63, Encoding::kEquality}),
    test::ParamName<AggCase>);

TEST(AggregateTest, AllNullColumn) {
  std::vector<uint32_t> values(50, kNullValue);
  BitmapIndex index = BitmapIndex::Build(
      values, 9, BaseSequence::FromMsbFirst({3, 3}), Encoding::kRange);
  Bitvector all = Bitvector::Ones(50);
  EXPECT_EQ(CountAggregate(index, all), 0);
  EXPECT_EQ(SumAggregate(index, all), 0);
  EXPECT_FALSE(MinAggregate(index, all).has_value());
  EXPECT_FALSE(AvgAggregate(index, all).has_value());
}

}  // namespace
}  // namespace bix
