// Row-reordering preprocessing (core/row_order.h) and its storage-format
// integration: permutation algebra, Gray/lex sort properties, the
// compression payoff, sidecar codec fuzzing, byte-identity of unsorted
// output, aggregate invariance, the sorted mutable-index lifecycle, and
// scrub coverage of the permutation sidecar plus orphan reporting.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/scan.h"
#include "bitmap/crc32c.h"
#include "bitmap/wah_bitvector.h"
#include "compress/codec.h"
#include "core/aggregate.h"
#include "core/bitmap_index.h"
#include "core/eval.h"
#include "core/row_order.h"
#include "storage/delta.h"
#include "storage/env.h"
#include "storage/format.h"
#include "storage/stored_index.h"
#include "workload/generators.h"

namespace bix {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "bix_roworder_XXXXXX")
            .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    path_ = mkdtemp(buf.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

std::vector<uint32_t> RandomColumn(size_t rows, uint32_t c, uint64_t seed,
                                   int null_period = 9) {
  std::vector<uint32_t> values = GenerateUniform(rows, c, seed);
  if (null_period > 0) {
    for (size_t i = 0; i < rows; i += static_cast<size_t>(null_period)) {
      values[i] = kNullValue;
    }
  }
  return values;
}

void ExpectValidPermutation(const std::vector<uint32_t>& perm, size_t rows) {
  ASSERT_EQ(perm.size(), rows);
  std::vector<bool> seen(rows, false);
  for (uint32_t p : perm) {
    ASSERT_LT(p, rows);
    ASSERT_FALSE(seen[p]) << "duplicate entry " << p;
    seen[p] = true;
  }
}

// --- permutation algebra --------------------------------------------------

TEST(RowOrderTest, InverseComposesToIdentityBothWays) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t rows = 1 + rng() % 500;
    const uint32_t c = 2 + static_cast<uint32_t>(rng() % 50);
    std::vector<uint32_t> values = RandomColumn(rows, c, rng());
    BaseSequence base = BaseSequence::Uniform(4, c);
    for (RowOrder order : {RowOrder::kLex, RowOrder::kGray}) {
      std::vector<uint32_t> perm = ComputeRowOrder(values, c, base, order);
      ExpectValidPermutation(perm, rows);
      std::vector<uint32_t> inverse = InvertPermutation(perm);
      ExpectValidPermutation(inverse, rows);
      for (size_t p = 0; p < rows; ++p) {
        EXPECT_EQ(inverse[perm[p]], p);
        EXPECT_EQ(perm[inverse[p]], p);
      }
    }
  }
}

TEST(RowOrderTest, RemapLogicalAndPhysicalAreInverses) {
  std::mt19937_64 rng(7);
  const size_t rows = 300;
  const uint32_t c = 12;
  std::vector<uint32_t> values = RandomColumn(rows, c, 3);
  BaseSequence base = BaseSequence::SingleComponent(c);
  std::vector<uint32_t> perm = ComputeRowOrder(values, c, base, RowOrder::kLex);
  for (int trial = 0; trial < 8; ++trial) {
    Bitvector logical = Bitvector::Zeros(rows);
    for (size_t r = 0; r < rows; ++r) {
      if (rng() % 3 == 0) logical.Set(r);
    }
    Bitvector physical = RemapToPhysical(logical, perm);
    EXPECT_TRUE(RemapToLogical(physical, perm) == logical);
    EXPECT_EQ(physical.Count(), logical.Count());
  }
  // Positions past the permutation's length (the append tail) map to
  // themselves in both directions.
  Bitvector tail = Bitvector::Zeros(rows + 10);
  tail.Set(rows + 3);
  tail.Set(perm[0]);
  Bitvector tail_physical = RemapToPhysical(tail, perm);
  EXPECT_TRUE(tail_physical.Get(rows + 3));
  EXPECT_TRUE(tail_physical.Get(0));
  EXPECT_TRUE(RemapToLogical(tail_physical, perm) == tail);

  // RemapToLogical scatters whichever side of the foundset is smaller, so
  // feed it densities on both sides of n/2 (and the boundary itself), word-
  // and non-word-multiple lengths, and permutations with an identity tail
  // (n - 100 leaves whole tail words past the permutation), each checked
  // against a naive per-bit scatter.
  for (size_t n : {size_t{65536}, size_t{65536 + 37}}) {
    for (size_t perm_len : {n, n - 10, n - 100}) {
      std::vector<uint32_t> shuffled(perm_len);
      std::iota(shuffled.begin(), shuffled.end(), 0);
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      std::vector<size_t> positions(n);
      std::iota(positions.begin(), positions.end(), 0);
      std::shuffle(positions.begin(), positions.end(), rng);
      auto first_k_random = [&](size_t k) {
        Bitvector bv = Bitvector::Zeros(n);
        for (size_t i = 0; i < k; ++i) bv.Set(positions[i]);
        return bv;
      };
      auto prefix = [&](size_t k) {
        Bitvector bv = Bitvector::Zeros(n);
        for (size_t i = 0; i < k; ++i) bv.Set(i);
        return bv;
      };
      const std::vector<Bitvector> inputs = {
          Bitvector::Zeros(n),          first_k_random(1),
          first_k_random(n / 2),        prefix(n / 2),
          first_k_random(n / 2 + 1),    prefix(n / 2 + 1),
          first_k_random(n * 9 / 10),   Bitvector::Ones(n)};
      for (size_t i = 0; i < inputs.size(); ++i) {
        const Bitvector& physical = inputs[i];
        Bitvector expected = Bitvector::Zeros(n);
        for (size_t p = 0; p < n; ++p) {
          if (physical.Get(p)) expected.Set(p < perm_len ? shuffled[p] : p);
        }
        Bitvector got = RemapToLogical(physical, shuffled);
        EXPECT_TRUE(got == expected)
            << "n=" << n << " perm_len=" << perm_len << " input " << i;
        EXPECT_TRUE(RemapToPhysical(got, shuffled) == physical)
            << "n=" << n << " perm_len=" << perm_len << " input " << i;
      }
    }
  }
}

TEST(RowOrderTest, LexSortsValuesWithNullsLast) {
  std::vector<uint32_t> values = RandomColumn(400, 20, 5);
  BaseSequence base = BaseSequence::SingleComponent(20);
  std::vector<uint32_t> perm = ComputeRowOrder(values, 20, base, RowOrder::kLex);
  std::vector<uint32_t> sorted = ApplyPermutation(values, perm);
  bool seen_null = false;
  for (size_t p = 0; p + 1 < sorted.size(); ++p) {
    if (sorted[p] == kNullValue) seen_null = true;
    if (seen_null) {
      EXPECT_EQ(sorted[p], kNullValue) << "NULL not last at " << p;
    } else if (sorted[p + 1] != kNullValue) {
      EXPECT_LE(sorted[p], sorted[p + 1]);
    }
  }
}

TEST(RowOrderTest, IdentityPermutationDetection) {
  EXPECT_TRUE(IsIdentityPermutation({}));
  std::vector<uint32_t> id(64);
  std::iota(id.begin(), id.end(), 0);
  EXPECT_TRUE(IsIdentityPermutation(id));
  std::swap(id[3], id[40]);
  EXPECT_FALSE(IsIdentityPermutation(id));
  // Already-sorted input yields the identity (stable sort).
  std::vector<uint32_t> sorted_values = {0, 0, 1, 2, 2, 3, kNullValue};
  std::vector<uint32_t> perm = ComputeRowOrder(
      sorted_values, 4, BaseSequence::SingleComponent(4), RowOrder::kLex);
  EXPECT_TRUE(IsIdentityPermutation(perm));
}

// --- the compression payoff ----------------------------------------------

// Sorting must shrink the WAH form of every-bitmap-summed storage on
// clustered-then-shuffled data — the whole point of the pass (arXiv
// 0901.3751).  Gray ordering must additionally never lose to unsorted.
TEST(RowOrderTest, SortingMultipliesWahCompression) {
  const size_t rows = 20000;
  const uint32_t c = 64;
  std::vector<uint32_t> values = GenerateUniform(rows, c, 99);
  BaseSequence base = BaseSequence::Uniform(8, c);
  auto wah_bytes = [&](const std::vector<uint32_t>& column) {
    BitmapIndex index = BitmapIndex::Build(column, c, base, Encoding::kRange);
    size_t bytes = 0;
    for (int comp = 0; comp < base.num_components(); ++comp) {
      for (uint32_t slot = 0;
           slot < NumStoredBitmaps(Encoding::kRange, base.base(comp));
           ++slot) {
        bytes += WahBitvector::FromBitvector(index.Fetch(comp, slot, nullptr))
                     .SizeInBytes();
      }
    }
    return bytes;
  };
  const size_t shuffled = wah_bytes(values);
  for (RowOrder order : {RowOrder::kLex, RowOrder::kGray}) {
    std::vector<uint32_t> perm = ComputeRowOrder(values, c, base, order);
    const size_t sorted = wah_bytes(ApplyPermutation(values, perm));
    EXPECT_GE(shuffled, 2 * sorted)
        << ToString(order) << ": " << shuffled << " -> " << sorted;
  }
}

// --- DecodeIndexValues (compaction's re-sort reader) ----------------------

TEST(RowOrderTest, DecodeIndexValuesRoundTripsEveryEncoding) {
  std::mt19937_64 rng(17);
  const struct {
    uint32_t c;
    BaseSequence base;
  } designs[] = {
      {10, BaseSequence::SingleComponent(10)},
      {30, BaseSequence::Uniform(6, 30)},
      {16, BaseSequence::BitSliced(16)},  // the all-base-2 path
      {2, BaseSequence::SingleComponent(2)},
  };
  for (const auto& d : designs) {
    for (Encoding enc : {Encoding::kRange, Encoding::kEquality}) {
      std::vector<uint32_t> values = RandomColumn(777, d.c, rng(), 5);
      BitmapIndex index = BitmapIndex::Build(values, d.c, d.base, enc);
      std::vector<uint32_t> decoded;
      ASSERT_TRUE(DecodeIndexValues(index, &decoded).ok());
      EXPECT_EQ(decoded, values)
          << "C=" << d.c << " enc=" << (enc == Encoding::kRange ? "r" : "e");
    }
  }
}

// --- sidecar codec fuzzing ------------------------------------------------

TEST(RowOrderTest, SidecarPayloadRoundTrips) {
  std::mt19937_64 rng(23);
  for (size_t rows : {size_t{1}, size_t{2}, size_t{1000}}) {
    std::vector<uint32_t> perm(rows);
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);
    std::vector<uint8_t> payload = format::EncodeRowOrderPayload(perm);
    std::vector<uint32_t> decoded;
    ASSERT_TRUE(format::DecodeRowOrderPayload(payload, "t", &decoded).ok());
    EXPECT_EQ(decoded, perm);
  }
}

TEST(RowOrderTest, SidecarDecodeSurvivesFuzzedCorruption) {
  std::mt19937_64 rng(31);
  std::vector<uint32_t> perm(257);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  const std::vector<uint8_t> good = format::EncodeRowOrderPayload(perm);

  // Every truncation length decodes to a typed error, never a crash or a
  // partial permutation.
  for (size_t len = 0; len < good.size(); ++len) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    std::vector<uint32_t> out = {123};
    Status s = format::DecodeRowOrderPayload(cut, "t", &out);
    EXPECT_EQ(s.code(), Status::Code::kCorruption) << "len=" << len;
    EXPECT_TRUE(out.empty() || s.ok());
  }
  // Single-bit rot anywhere is caught (header, entries, CRC itself).
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> bad = good;
    bad[rng() % bad.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
    std::vector<uint32_t> out;
    Status s = format::DecodeRowOrderPayload(bad, "t", &out);
    EXPECT_EQ(s.code(), Status::Code::kCorruption);
  }
  // Random garbage of assorted sizes never crashes.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> junk(rng() % 200);
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng());
    std::vector<uint32_t> out;
    Status s = format::DecodeRowOrderPayload(junk, "t", &out);
    EXPECT_FALSE(s.ok());
  }
  // A forged payload whose CRC is valid but whose entries are not a
  // permutation (duplicate) is still rejected.
  {
    std::vector<uint32_t> dup = perm;
    dup[5] = dup[6];
    std::vector<uint8_t> forged = format::EncodeRowOrderPayload(dup);
    std::vector<uint32_t> out;
    Status s = format::DecodeRowOrderPayload(forged, "t", &out);
    EXPECT_EQ(s.code(), Status::Code::kCorruption);
    EXPECT_TRUE(out.empty());
  }
}

// --- storage integration --------------------------------------------------

std::map<std::string, std::vector<char>> ReadDirBytes(
    const std::filesystem::path& dir) {
  std::map<std::string, std::vector<char>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream f(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] = std::vector<char>(
        std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  return files;
}

// An identity permutation (or none) must leave the on-disk bytes exactly as
// the pre-row-order code wrote them: no sidecar, no meta key, same CRCs.
TEST(RowOrderTest, IdentityPermutationWritesByteIdenticalIndex) {
  std::vector<uint32_t> values = RandomColumn(500, 12, 77);
  BaseSequence base = BaseSequence::SingleComponent(12);
  BitmapIndex index = BitmapIndex::Build(values, 12, base, Encoding::kRange);

  TempDir plain_dir, identity_dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, plain_dir.path(),
                                 StorageScheme::kBitmapLevel, *CodecByName("none"),
                                 &stored)
                  .ok());
  std::vector<uint32_t> identity(values.size());
  std::iota(identity.begin(), identity.end(), 0);
  ASSERT_TRUE(StoredIndex::Write(index, identity_dir.path(),
                                 StorageScheme::kBitmapLevel, *CodecByName("none"),
                                 &stored, {}, identity, RowOrder::kLex)
                  .ok());
  EXPECT_TRUE(ReadDirBytes(plain_dir.path()) ==
              ReadDirBytes(identity_dir.path()));
  EXPECT_TRUE(stored->row_order().empty());
  EXPECT_EQ(stored->row_order_kind(), RowOrder::kNone);
}

TEST(RowOrderTest, SortedStoredIndexRoundTripsAndRemaps) {
  const size_t rows = 2000;
  const uint32_t c = 25;
  std::vector<uint32_t> values = RandomColumn(rows, c, 13);
  BaseSequence base = BaseSequence::Uniform(5, c);
  std::vector<uint32_t> perm =
      ComputeRowOrder(values, c, base, RowOrder::kGray);
  BitmapIndex index = BitmapIndex::Build(ApplyPermutation(values, perm), c,
                                         base, Encoding::kRange);
  TempDir dir;
  std::unique_ptr<StoredIndex> written;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path(),
                                 StorageScheme::kBitmapLevel, *CodecByName("none"),
                                 &written, {}, perm, RowOrder::kGray)
                  .ok());
  std::unique_ptr<StoredIndex> opened;
  ASSERT_TRUE(StoredIndex::Open(dir.path(), &opened).ok());
  EXPECT_EQ(opened->row_order_kind(), RowOrder::kGray);
  ASSERT_EQ(opened->row_order().size(), rows);
  EXPECT_EQ(opened->row_order(), perm);

  for (CompareOp op : kAllCompareOps) {
    for (int64_t v : {int64_t{0}, int64_t{7}, int64_t{24}}) {
      Status s;
      Bitvector got = opened->Evaluate(EvalAlgorithm::kAuto, op, v, nullptr,
                                       nullptr, &s);
      ASSERT_TRUE(s.ok());
      EXPECT_TRUE(got == ScanEvaluate(values, op, v))
          << std::string(ToString(op)) << " " << v;
    }
  }

  // Scrub covers the sidecar as a first-class verified file.
  format::ScrubReport report;
  ASSERT_TRUE(format::ScrubIndexDir(*Env::Default(), dir.path(), &report).ok());
  EXPECT_TRUE(report.clean());
  bool saw_sidecar = false;
  for (const auto& f : report.files) {
    if (f.name.find("roworder.perm") != std::string::npos) {
      saw_sidecar = true;
      EXPECT_EQ(f.state, format::FileCheck::State::kOk) << f.detail;
    }
  }
  EXPECT_TRUE(saw_sidecar);
}

TEST(RowOrderTest, CorruptOrMissingSidecarIsTypedError) {
  std::vector<uint32_t> values = RandomColumn(600, 10, 3);
  BaseSequence base = BaseSequence::SingleComponent(10);
  std::vector<uint32_t> perm = ComputeRowOrder(values, 10, base, RowOrder::kLex);
  BitmapIndex index = BitmapIndex::Build(ApplyPermutation(values, perm), 10,
                                         base, Encoding::kRange);
  {
    TempDir dir;
    std::unique_ptr<StoredIndex> stored;
    ASSERT_TRUE(StoredIndex::Write(index, dir.path(),
                                   StorageScheme::kBitmapLevel, *CodecByName("none"),
                                   &stored, {}, perm, RowOrder::kLex)
                    .ok());
    // Bit rot inside the sidecar: open fails Corruption, scrub flags it.
    const std::filesystem::path sidecar = dir.path() / "roworder.perm";
    {
      std::fstream f(sidecar,
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(64);
      char b = 0;
      f.seekg(64);
      f.read(&b, 1);
      b = static_cast<char>(b ^ 0x10);
      f.seekp(64);
      f.write(&b, 1);
    }
    std::unique_ptr<StoredIndex> reopened;
    Status s = StoredIndex::Open(dir.path(), &reopened);
    EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
    format::ScrubReport report;
    ASSERT_TRUE(
        format::ScrubIndexDir(*Env::Default(), dir.path(), &report).ok());
    EXPECT_FALSE(report.clean());
  }
  {
    TempDir dir;
    std::unique_ptr<StoredIndex> stored;
    ASSERT_TRUE(StoredIndex::Write(index, dir.path(),
                                   StorageScheme::kBitmapLevel, *CodecByName("none"),
                                   &stored, {}, perm, RowOrder::kLex)
                    .ok());
    // Sidecar deleted out from under the meta's roworder key: Corruption,
    // never a silently unsorted index.
    std::filesystem::remove(dir.path() / "roworder.perm");
    std::unique_ptr<StoredIndex> reopened;
    Status s = StoredIndex::Open(dir.path(), &reopened);
    EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  }
}

// Scrub must name files it has no opinion about instead of silently
// skipping them — an orphan is reported kUnverified but keeps the
// directory clean (stale-generation sweeps leave such files by design).
TEST(RowOrderTest, ScrubReportsUnrecognizedFilesAsOrphans) {
  std::vector<uint32_t> values = RandomColumn(300, 8, 21);
  BitmapIndex index = BitmapIndex::Build(
      values, 8, BaseSequence::SingleComponent(8), Encoding::kRange);
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path(),
                                 StorageScheme::kBitmapLevel, *CodecByName("none"),
                                 &stored)
                  .ok());
  std::ofstream(dir.path() / "leftover.bin") << "junk";
  format::ScrubReport report;
  ASSERT_TRUE(format::ScrubIndexDir(*Env::Default(), dir.path(), &report).ok());
  EXPECT_TRUE(report.clean());
  bool saw_orphan = false;
  for (const auto& f : report.files) {
    if (f.name == "leftover.bin") {
      saw_orphan = true;
      EXPECT_EQ(f.state, format::FileCheck::State::kUnverified);
    }
  }
  EXPECT_TRUE(saw_orphan);
}

// --- aggregate invariance -------------------------------------------------

TEST(RowOrderTest, AggregatesInvariantUnderSortWithRemappedFoundset) {
  const size_t rows = 4000;
  const uint32_t c = 40;
  std::vector<uint32_t> values = RandomColumn(rows, c, 55);
  BaseSequence base = BaseSequence::BitSliced(c);
  BitmapIndex unsorted = BitmapIndex::Build(values, c, base, Encoding::kRange);
  for (RowOrder order : {RowOrder::kLex, RowOrder::kGray}) {
    std::vector<uint32_t> perm = ComputeRowOrder(values, c, base, order);
    BitmapIndex sorted = BitmapIndex::Build(ApplyPermutation(values, perm), c,
                                            base, Encoding::kRange);
    for (int64_t v : {int64_t{5}, int64_t{20}, int64_t{39}}) {
      Bitvector logical = ScanEvaluate(values, CompareOp::kLe, v);
      Bitvector physical = RemapToPhysical(logical, perm);
      EXPECT_EQ(CountAggregate(sorted, physical),
                CountAggregate(unsorted, logical));
      EXPECT_EQ(SumAggregate(sorted, physical),
                SumAggregate(unsorted, logical));
      EXPECT_EQ(MinAggregate(sorted, physical),
                MinAggregate(unsorted, logical));
      EXPECT_EQ(MaxAggregate(sorted, physical),
                MaxAggregate(unsorted, logical));
      EXPECT_EQ(GroupedCounts(sorted, physical),
                GroupedCounts(unsorted, logical));
    }
  }
}

// --- multi-column ordering ------------------------------------------------

TEST(RowOrderTest, HistogramColumnOrderPrefersLowCardinalityThenSkew) {
  std::vector<uint32_t> wide(100), narrow(100), skewed(100), flat(100);
  std::mt19937_64 rng(5);
  for (size_t i = 0; i < 100; ++i) {
    wide[i] = static_cast<uint32_t>(rng() % 50);
    narrow[i] = static_cast<uint32_t>(rng() % 3);
    skewed[i] = rng() % 10 == 0 ? static_cast<uint32_t>(1 + rng() % 7) : 0;
    flat[i] = static_cast<uint32_t>(rng() % 8);
  }
  std::vector<OrderColumn> columns = {
      {wide, 50}, {narrow, 3}, {skewed, 8}, {flat, 8}};
  std::vector<size_t> order = HistogramColumnOrder(columns);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1u);  // 3 distinct values — fewest
  // Same distinct count (8): the skewed histogram sorts before the flat one.
  auto pos = [&](size_t col) {
    return std::find(order.begin(), order.end(), col) - order.begin();
  };
  EXPECT_LT(pos(2), pos(3));
  EXPECT_EQ(order[3], 0u);  // 50 distinct values — last
}

TEST(RowOrderTest, MultiColumnOrderSortsLexicographically) {
  std::mt19937_64 rng(91);
  const size_t rows = 800;
  std::vector<uint32_t> a(rows), b(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = static_cast<uint32_t>(rng() % 4);
    b[i] = rng() % 13 == 0 ? kNullValue : static_cast<uint32_t>(rng() % 30);
  }
  std::vector<OrderColumn> columns = {{a, 4}, {b, 30}};
  for (RowOrder order : {RowOrder::kLex, RowOrder::kGray}) {
    std::vector<uint32_t> perm = ComputeMultiColumnRowOrder(columns, order);
    ExpectValidPermutation(perm, rows);
  }
  // Lex: a (fewer distinct values) is the major key; within equal a-runs b
  // ascends with NULLs last.
  std::vector<uint32_t> perm = ComputeMultiColumnRowOrder(columns,
                                                          RowOrder::kLex);
  for (size_t p = 0; p + 1 < rows; ++p) {
    const uint32_t a0 = a[perm[p]], a1 = a[perm[p + 1]];
    EXPECT_LE(a0, a1);
    if (a0 == a1) {
      const uint32_t b0 = b[perm[p]], b1 = b[perm[p + 1]];
      if (b0 != kNullValue && b1 != kNullValue) EXPECT_LE(b0, b1);
      if (b0 == kNullValue) EXPECT_EQ(b1, kNullValue);
    }
  }
}

// --- the sorted mutable-index lifecycle -----------------------------------

// Oracle: logical value column with deletes as permanent NULLs; the index
// must agree with a fresh scan after every mutation step, across
// append -> delete -> compact -> append -> resort -> reopen.
TEST(RowOrderTest, SortedMutableIndexSurvivesMutationLifecycle) {
  const uint32_t c = 16;
  BaseSequence base = BaseSequence::Uniform(4, c);
  std::vector<uint32_t> logical = RandomColumn(1200, c, 8, 7);
  std::vector<uint32_t> perm =
      ComputeRowOrder(logical, c, base, RowOrder::kGray);
  BitmapIndex index = BitmapIndex::Build(ApplyPermutation(logical, perm), c,
                                         base, Encoding::kEquality);
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path(),
                                 StorageScheme::kBitmapLevel, *CodecByName("none"),
                                 &stored, {}, perm, RowOrder::kGray)
                  .ok());
  stored.reset();

  std::unique_ptr<MutableStoredIndex> mutable_index;
  ASSERT_TRUE(MutableStoredIndex::Open(dir.path(), &mutable_index).ok());

  auto check_all = [&](const char* stage) {
    for (CompareOp op : {CompareOp::kLe, CompareOp::kEq, CompareOp::kGt}) {
      for (int64_t v : {int64_t{0}, int64_t{6}, int64_t{15}}) {
        Status s;
        Bitvector got = mutable_index->Evaluate(EvalAlgorithm::kAuto, op, v,
                                                nullptr, nullptr, &s);
        ASSERT_TRUE(s.ok()) << stage << ": " << s.ToString();
        ASSERT_TRUE(got == ScanEvaluate(logical, op, v))
            << stage << " op=" << std::string(ToString(op)) << " v=" << v;
      }
    }
  };
  check_all("initial");

  // Appends land at the logical AND physical tail.
  std::vector<uint32_t> tail = {3, 3, kNullValue, 15, 0, 9};
  ASSERT_TRUE(mutable_index->Append(tail).ok());
  logical.insert(logical.end(), tail.begin(), tail.end());
  check_all("after append");

  // Deletes take logical ids — including rows the sort moved and rows in
  // the appended tail.
  std::vector<uint32_t> doomed = {0, 17, 555,
                                  static_cast<uint32_t>(logical.size() - 2)};
  ASSERT_TRUE(mutable_index->Delete(doomed).ok());
  for (uint32_t r : doomed) logical[r] = kNullValue;  // permanent NULL
  check_all("after delete");

  // Plain compaction carries the permutation forward (identity tail).
  ASSERT_TRUE(mutable_index->Compact().ok());
  EXPECT_EQ(mutable_index->base()->row_order_kind(), RowOrder::kGray);
  EXPECT_EQ(mutable_index->base()->row_order().size(), logical.size());
  check_all("after compact");

  std::vector<uint32_t> tail2 = {1, 14, 7, 7, 7};
  ASSERT_TRUE(mutable_index->Append(tail2).ok());
  logical.insert(logical.end(), tail2.begin(), tail2.end());
  const std::vector<uint32_t> one = {5};
  ASSERT_TRUE(mutable_index->Delete(one).ok());
  logical[5] = kNullValue;
  check_all("after second append");

  // Re-sorting compaction recomputes the permutation over the folded
  // logical column (default: keep the base's gray order).
  ASSERT_TRUE(mutable_index->Compact(/*resort=*/true).ok());
  EXPECT_EQ(mutable_index->base()->row_order_kind(), RowOrder::kGray);
  check_all("after resort");

  // And a previously-unsorted index can be converted by a resort with an
  // explicit order.
  ASSERT_TRUE(mutable_index->Compact(/*resort=*/true, RowOrder::kLex).ok());
  EXPECT_EQ(mutable_index->base()->row_order_kind(), RowOrder::kLex);
  check_all("after lex resort");

  // Everything holds across a cold reopen.
  mutable_index.reset();
  ASSERT_TRUE(MutableStoredIndex::Open(dir.path(), &mutable_index).ok());
  EXPECT_EQ(mutable_index->base()->row_order_kind(), RowOrder::kLex);
  check_all("after reopen");
}

}  // namespace
}  // namespace bix
