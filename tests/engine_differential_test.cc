// Property harness for the evaluation engines: over random index designs
// (cardinality, base sequence, encoding, bit density, row count) both
// engines — plain, and the per-operand compressed-domain auto engine, also
// through EvaluateToWah's compressed result — must produce bit-identical foundsets AND identical EvalStats for
// all six comparison operators at every v in [0, C), against the scan
// oracle, over both a dense in-memory index and a WAH-compressed source.
// Every engine's scan count must also equal the cost model's closed form
// (ModelScans), the stats reference that does not depend on any evaluator.
//
// On a mismatch the harness shrinks the failing design (rows, then
// cardinality, then components) while the failure reproduces, and prints a
// minimal seeded reproducer before failing the test.

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/scan.h"
#include "bitmap/bitvector.h"
#include "core/bitmap_index.h"
#include "core/compressed_source.h"
#include "core/cost_model.h"
#include "core/eval.h"
#include "core/row_order.h"
#include "exec/segmented_eval.h"
#include "exec/wah_engine.h"
#include "workload/generators.h"

namespace bix {
namespace {

struct Design {
  uint64_t seed = 0;                // drives data generation only
  std::vector<uint32_t> bases;      // LSB-first
  uint32_t cardinality = 2;
  Encoding encoding = Encoding::kRange;
  size_t rows = 100;
  int null_period = 11;             // every k-th row is NULL (0 = none)
  int hot_percent = 0;              // % of rows pinned to value 0 (density)
  RowOrder sort = RowOrder::kNone;  // row-reordering preprocessing pass

  std::string ToString() const {
    std::ostringstream os;
    os << "seed=" << seed << " bases=[";
    for (size_t i = 0; i < bases.size(); ++i) {
      os << (i ? "," : "") << bases[i];
    }
    os << "] C=" << cardinality
       << " enc=" << (encoding == Encoding::kRange ? "range" : "equality")
       << " rows=" << rows << " null_period=" << null_period
       << " hot_percent=" << hot_percent << " sort=" << bix::ToString(sort);
    return os.str();
  }
};

std::vector<uint32_t> GenerateData(const Design& d) {
  std::mt19937_64 rng(d.seed);
  std::vector<uint32_t> values(d.rows);
  for (size_t i = 0; i < d.rows; ++i) {
    if (static_cast<int>(rng() % 100) < d.hot_percent) {
      values[i] = 0;  // hot value: long fills in its bitmaps
    } else {
      values[i] = static_cast<uint32_t>(rng() % d.cardinality);
    }
  }
  if (d.null_period > 0) {
    for (size_t i = 0; i < d.rows;
         i += static_cast<size_t>(d.null_period)) {
      values[i] = kNullValue;
    }
  }
  return values;
}

struct Mismatch {
  std::string detail;
};

// One full differential sweep over the design: every engine, both sources,
// all 6 operators, every v in [0, C) plus out-of-domain probes.  Returns
// true (and fills *out) on the first divergence.
bool SweepFails(const Design& d, Mismatch* out) {
  std::vector<uint32_t> values = GenerateData(d);
  BaseSequence base = BaseSequence::FromLsbFirst(d.bases);
  // The sorted axis: build over the permuted rows, evaluate in physical
  // space, and remap every foundset back to logical ids before comparing
  // against the (logical-space) scan oracle.
  std::vector<uint32_t> perm;
  if (d.sort != RowOrder::kNone) {
    perm = ComputeRowOrder(values, d.cardinality, base, d.sort);
  }
  BitmapIndex index = BitmapIndex::Build(
      perm.empty() ? values : ApplyPermutation(values, perm), d.cardinality,
      base, d.encoding);
  WahCompressedSource compressed(index);
  const BitmapSource* sources[] = {&index, &compressed};
  const char* source_names[] = {"BitmapIndex", "WahCompressedSource"};

  std::vector<EvalAlgorithm> algorithms;
  if (d.encoding == Encoding::kRange) {
    algorithms = {EvalAlgorithm::kRangeEvalOpt, EvalAlgorithm::kRangeEval};
  } else {
    algorithms = {EvalAlgorithm::kEqualityEval};
  }

  const ExecOptions kAutoEngine{.engine = EngineKind::kAuto};

  for (CompareOp op : kAllCompareOps) {
    for (int64_t v = -1; v <= static_cast<int64_t>(d.cardinality); ++v) {
      Bitvector expected = ScanEvaluate(values, op, v);
      for (size_t s = 0; s < 2; ++s) {
        for (EvalAlgorithm alg : algorithms) {
          EvalStats plain_stats;
          Bitvector plain =
              EvaluatePredicate(*sources[s], alg, op, v, &plain_stats);
          if (!perm.empty()) plain = RemapToLogical(plain, perm);

          struct Variant {
            const char* name;
            const ExecOptions* options;
          };
          const Variant variants[] = {{"auto", &kAutoEngine},
                                      {"auto to-wah", nullptr}};
          auto report = [&](const char* engine, const char* what) {
            std::ostringstream os;
            os << what << ": engine=" << engine << " source="
               << source_names[s] << " alg=" << ToString(alg).data() << " op="
               << std::string(ToString(op)) << " v=" << v << " | "
               << d.ToString();
            out->detail = os.str();
          };

          if (!(plain == expected)) {
            report("plain", "foundset diverges from scan oracle");
            return true;
          }
          const int64_t model_scans =
              ModelScans(base, d.cardinality, d.encoding, alg, op, v);
          if (plain_stats.bitmap_scans != model_scans) {
            report("plain", "bitmap_scans diverge from the cost model");
            return true;
          }
          for (const Variant& variant : variants) {
            EvalStats stats;
            // No options: the auto engine's compressed result
            // (EvaluateToWah), inflated here for comparison.
            Bitvector got =
                variant.options != nullptr
                    ? EvaluatePredicate(*sources[s], alg, op, v,
                                        *variant.options, &stats)
                    : exec::EvaluateToWah(*sources[s], alg, op, v,
                                          EngineKind::kAuto, &stats)
                          .ToBitvector();
            if (!perm.empty()) got = RemapToLogical(got, perm);
            if (!(got == expected)) {
              report(variant.name, "foundset diverges from scan oracle");
              return true;
            }
            if (stats.bitmap_scans != model_scans) {
              report(variant.name, "bitmap_scans diverge from the cost model");
              return true;
            }
            if (!(stats == plain_stats)) {
              report(variant.name, "EvalStats diverge from plain engine");
              return true;
            }
          }
        }
      }
    }
  }
  return false;
}

// Shrinks a failing design: each step proposes a strictly smaller candidate
// and keeps it only if the failure still reproduces.
Design Shrink(Design d, Mismatch* m) {
  bool progress = true;
  while (progress) {
    progress = false;
    while (d.rows > 4) {
      Design candidate = d;
      candidate.rows = d.rows / 2;
      if (!SweepFails(candidate, m)) break;
      d = candidate;
      progress = true;
    }
    while (d.bases.size() > 1) {
      Design candidate = d;
      candidate.bases.pop_back();  // drop the most significant component
      uint64_t capacity = 1;
      for (uint32_t b : candidate.bases) capacity *= b;
      if (capacity < candidate.cardinality) break;
      if (!SweepFails(candidate, m)) break;
      d = candidate;
      progress = true;
    }
    while (d.cardinality > 2) {
      Design candidate = d;
      candidate.cardinality = d.cardinality / 2 + 1;
      if (candidate.cardinality >= d.cardinality) break;
      if (!SweepFails(candidate, m)) break;
      d = candidate;
      progress = true;
    }
  }
  SweepFails(d, m);  // refresh the mismatch detail for the minimal design
  return d;
}

Design RandomDesign(std::mt19937_64& rng) {
  Design d;
  d.seed = rng();
  int n = 1 + static_cast<int>(rng() % 3);
  uint64_t capacity = 1;
  for (int i = 0; i < n; ++i) {
    uint32_t b = 2 + static_cast<uint32_t>(rng() % 7);
    d.bases.push_back(b);
    capacity *= b;
  }
  d.cardinality = static_cast<uint32_t>(
      1 + rng() % std::min<uint64_t>(capacity, 40));
  if (d.cardinality < 2) d.cardinality = 2;
  d.encoding = rng() % 2 ? Encoding::kRange : Encoding::kEquality;
  d.rows = 64 + rng() % 1200;
  d.null_period = rng() % 3 == 0 ? 0 : 5 + static_cast<int>(rng() % 20);
  // Sweep the density spectrum: mostly-empty bitmaps (hot value absorbs
  // nearly all rows) through uniformly dense ones.
  const int densities[] = {0, 25, 60, 90, 98};
  d.hot_percent = densities[rng() % 5];
  const RowOrder orders[] = {RowOrder::kNone, RowOrder::kLex, RowOrder::kGray};
  d.sort = orders[rng() % 3];
  return d;
}

TEST(EngineDifferentialTest, AllEnginesBitExactWithEqualStats) {
  std::mt19937_64 rng(20260805);
  for (int trial = 0; trial < 24; ++trial) {
    Design d = RandomDesign(rng);
    Mismatch m;
    if (SweepFails(d, &m)) {
      Design minimal = Shrink(d, &m);
      FAIL() << "engine differential mismatch\n"
             << "  " << m.detail << "\n"
             << "  minimal reproducer: " << minimal.ToString() << "\n"
             << "  original design:    " << d.ToString();
    }
  }
}

// Directed edge designs the random sweep may miss: row counts on WAH group
// boundaries, C == capacity, base-2-only designs (the complemented-E^0
// path), and the all-null column.
TEST(EngineDifferentialTest, EdgeDesigns) {
  const size_t kBoundaryRows[] = {31, 32, 62, 63, 64, 93, 124};
  std::mt19937_64 rng(7);
  for (size_t rows : kBoundaryRows) {
    for (Encoding enc : {Encoding::kRange, Encoding::kEquality}) {
      for (RowOrder sort :
           {RowOrder::kNone, RowOrder::kLex, RowOrder::kGray}) {
        Design d;
        d.seed = rng();
        d.bases = {2, 2, 2};
        d.cardinality = 8;
        d.encoding = enc;
        d.rows = rows;
        d.null_period = 7;
        d.hot_percent = 50;
        d.sort = sort;
        Mismatch m;
        EXPECT_FALSE(SweepFails(d, &m)) << m.detail;
      }
    }
  }
  Design all_null;
  all_null.seed = 1;
  all_null.bases = {4};
  all_null.cardinality = 4;
  all_null.rows = 100;
  all_null.null_period = 1;  // every row NULL
  for (Encoding enc : {Encoding::kRange, Encoding::kEquality}) {
    all_null.encoding = enc;
    Mismatch m;
    EXPECT_FALSE(SweepFails(all_null, &m)) << m.detail;
  }
}

// Designs whose rows span three full replay segments (core/eval.h's
// kSegmentBits) plus a tail segment ending in a partial word, so every
// engine crosses segment seams and the tail mask.
TEST(EngineDifferentialTest, MultiSegmentDesigns) {
  constexpr size_t kRows = 3 * (size_t{1} << kSegmentBits) + 37;
  std::mt19937_64 rng(20261018);
  for (Encoding enc : {Encoding::kRange, Encoding::kEquality}) {
    for (RowOrder sort : {RowOrder::kNone, RowOrder::kGray}) {
      Design d;
      d.seed = rng();
      d.bases = {3, 4};
      d.cardinality = 11;
      d.encoding = enc;
      d.rows = kRows;
      d.null_period = 13;
      d.hot_percent = 25;
      d.sort = sort;
      Mismatch m;
      EXPECT_FALSE(SweepFails(d, &m)) << m.detail;
    }
  }
  // Base-2 components: the complemented-E^0 path's NOTs hit the tail word.
  Design bits;
  bits.seed = rng();
  bits.bases = {2, 2, 2};
  bits.cardinality = 8;
  bits.encoding = Encoding::kEquality;
  bits.rows = kRows;
  bits.null_period = 7;
  bits.sort = RowOrder::kLex;
  Mismatch m;
  EXPECT_FALSE(SweepFails(bits, &m)) << m.detail;
}

// A sorted index is the same logical index in a different physical layout:
// on the dense in-memory source the plain engine's scan/op counts depend
// only on the design (the algorithms follow the published pseudocode
// literally), so sorted and unsorted builds must report IDENTICAL EvalStats
// — and bit-identical foundsets once the sorted result is remapped.
TEST(EngineDifferentialTest, SortedIndexStatsMatchUnsorted) {
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 8; ++trial) {
    Design d = RandomDesign(rng);
    d.sort = RowOrder::kNone;
    std::vector<uint32_t> values = GenerateData(d);
    BaseSequence base = BaseSequence::FromLsbFirst(d.bases);
    BitmapIndex unsorted =
        BitmapIndex::Build(values, d.cardinality, base, d.encoding);
    EvalAlgorithm alg = d.encoding == Encoding::kRange
                            ? EvalAlgorithm::kRangeEvalOpt
                            : EvalAlgorithm::kEqualityEval;
    for (RowOrder sort : {RowOrder::kLex, RowOrder::kGray}) {
      std::vector<uint32_t> perm =
          ComputeRowOrder(values, d.cardinality, base, sort);
      BitmapIndex sorted = BitmapIndex::Build(
          ApplyPermutation(values, perm), d.cardinality, base, d.encoding);
      for (CompareOp op : kAllCompareOps) {
        for (int64_t v = -1; v <= static_cast<int64_t>(d.cardinality); ++v) {
          EvalStats unsorted_stats;
          Bitvector want =
              EvaluatePredicate(unsorted, alg, op, v, &unsorted_stats);
          EvalStats sorted_stats;
          Bitvector got = EvaluatePredicate(sorted, alg, op, v, &sorted_stats);
          got = RemapToLogical(got, perm);
          ASSERT_TRUE(got == want)
              << "sorted foundset diverges after remap: op="
              << std::string(ToString(op)) << " v=" << v << " sort="
              << bix::ToString(sort) << " | " << d.ToString();
          ASSERT_TRUE(sorted_stats == unsorted_stats)
              << "sorted EvalStats diverge from unsorted: op="
              << std::string(ToString(op)) << " v=" << v << " sort="
              << bix::ToString(sort) << " | " << d.ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace bix
