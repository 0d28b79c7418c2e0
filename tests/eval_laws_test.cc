// Algebraic laws every correct selection-predicate evaluator must satisfy,
// checked as properties over the whole query space for a sweep of index
// designs.  These complement the oracle tests in eval_correctness_test.cc:
// they catch errors that an (independently wrong) oracle could miss, and
// they pin down the NULL semantics.

#include <vector>

#include <gtest/gtest.h>

#include "core/bitmap_index.h"
#include "workload/generators.h"

#include "param_names.h"

namespace bix {
namespace {

struct LawsCase {
  std::vector<uint32_t> bases_msb;
  uint32_t cardinality;
  Encoding encoding;
};

std::string CaseName(const LawsCase& c) {
  return test::DesignName(c.bases_msb, c.cardinality) +
         test::EncodingName(c.encoding);
}
void PrintTo(const LawsCase& c, std::ostream* os) { *os << CaseName(c); }

class EvalLawsTest : public ::testing::TestWithParam<LawsCase> {
 protected:
  void SetUp() override {
    const LawsCase& c = GetParam();
    values_ = GenerateUniform(400, c.cardinality, 1000 + c.cardinality);
    for (size_t i = 0; i < values_.size(); i += 17) values_[i] = kNullValue;
    index_.emplace(BitmapIndex::Build(values_, c.cardinality,
                                      BaseSequence::FromMsbFirst(c.bases_msb),
                                      c.encoding));
  }

  std::vector<uint32_t> values_;
  std::optional<BitmapIndex> index_;
};

TEST_P(EvalLawsTest, ComplementPartitionsNonNull) {
  // (A <= v) and (A > v) partition the non-null records, for every v.
  const uint32_t c = GetParam().cardinality;
  for (uint32_t v = 0; v < c; ++v) {
    Bitvector le = index_->Evaluate(CompareOp::kLe, v);
    Bitvector gt = index_->Evaluate(CompareOp::kGt, v);
    Bitvector both = le & gt;
    ASSERT_TRUE(both.None()) << v;
    ASSERT_EQ(le | gt, index_->non_null()) << v;
    // Same law for = / !=.
    Bitvector eq = index_->Evaluate(CompareOp::kEq, v);
    Bitvector ne = index_->Evaluate(CompareOp::kNe, v);
    ASSERT_TRUE((eq & ne).None()) << v;
    ASSERT_EQ(eq | ne, index_->non_null()) << v;
  }
}

TEST_P(EvalLawsTest, RangeDecomposesIntoStrictPlusEqual) {
  const uint32_t c = GetParam().cardinality;
  for (uint32_t v = 0; v < c; ++v) {
    Bitvector le = index_->Evaluate(CompareOp::kLe, v);
    Bitvector lt = index_->Evaluate(CompareOp::kLt, v);
    Bitvector eq = index_->Evaluate(CompareOp::kEq, v);
    ASSERT_EQ(lt | eq, le) << v;
    ASSERT_TRUE((lt & eq).None()) << v;
    Bitvector ge = index_->Evaluate(CompareOp::kGe, v);
    Bitvector gt = index_->Evaluate(CompareOp::kGt, v);
    ASSERT_EQ(gt | eq, ge) << v;
  }
}

TEST_P(EvalLawsTest, FoundsetsAreMonotoneInTheConstant) {
  const uint32_t c = GetParam().cardinality;
  Bitvector prev = index_->Evaluate(CompareOp::kLe, -1);
  EXPECT_TRUE(prev.None());
  for (uint32_t v = 0; v < c; ++v) {
    Bitvector cur = index_->Evaluate(CompareOp::kLe, v);
    // prev is a subset of cur.
    Bitvector diff = prev;
    diff.AndNotWith(cur);
    ASSERT_TRUE(diff.None()) << v;
    prev = std::move(cur);
  }
  ASSERT_EQ(prev, index_->non_null());  // A <= C-1 covers everything
}

TEST_P(EvalLawsTest, EqualityFoundsetsPartitionByValue) {
  const uint32_t c = GetParam().cardinality;
  Bitvector acc(values_.size());
  size_t total = 0;
  for (uint32_t v = 0; v < c; ++v) {
    Bitvector eq = index_->Evaluate(CompareOp::kEq, v);
    ASSERT_TRUE((acc & eq).None()) << v;  // disjoint across values
    total += eq.Count();
    acc.OrWith(eq);
  }
  EXPECT_EQ(acc, index_->non_null());
  EXPECT_EQ(total, index_->non_null().Count());
}

TEST_P(EvalLawsTest, NullsNeverQualify) {
  const uint32_t c = GetParam().cardinality;
  for (CompareOp op : kAllCompareOps) {
    Bitvector found = index_->Evaluate(op, static_cast<int64_t>(c / 2));
    for (size_t r = 0; r < values_.size(); ++r) {
      if (values_[r] == kNullValue) {
        ASSERT_FALSE(found.Get(r)) << ToString(op) << " row " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, EvalLawsTest,
    ::testing::Values(
        LawsCase{{30}, 30, Encoding::kRange},
        LawsCase{{30}, 30, Encoding::kEquality},
        LawsCase{{6, 5}, 30, Encoding::kRange},
        LawsCase{{6, 5}, 30, Encoding::kEquality},
        LawsCase{{2, 2, 2, 2, 2}, 30, Encoding::kRange},
        LawsCase{{2, 2, 2, 2, 2}, 30, Encoding::kEquality},
        LawsCase{{4, 3, 4}, 42, Encoding::kRange},
        LawsCase{{4, 3, 4}, 42, Encoding::kEquality}),
    test::ParamName<LawsCase>);

}  // namespace
}  // namespace bix
