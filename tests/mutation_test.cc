// MutableStoredIndex behavior tests: append/delete/compact round trips,
// overlay identity with a from-scratch rebuild (bits AND stats), clean
// passthrough parity, torn-tail recovery, typed mid-log corruption, scrub
// coverage of the mutation sidecars, and the generation-tagged manifest.
//
// The crash-point battery (die at the Nth write/fsync/rename and prove
// atomicity) lives in mutation_crash_test.cc; this file covers the
// fault-free semantics those tests build on.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/scan.h"
#include "bitmap/bitvector.h"
#include "compress/codec.h"
#include "core/bitmap_index.h"
#include "core/eval.h"
#include "obs/metrics.h"
#include "storage/delta.h"
#include "storage/env.h"
#include "storage/format.h"
#include "storage/stored_index.h"
#include "workload/queries.h"

namespace bix {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "bix_mut_XXXXXX").string();
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

constexpr uint32_t kCardinality = 6;

std::vector<uint32_t> SeedValues() {
  // 24 rows over C=6 with a couple of nulls.
  std::vector<uint32_t> v;
  for (uint32_t i = 0; i < 24; ++i) {
    v.push_back(i % 7 == 0 ? kNullValue : i % kCardinality);
  }
  return v;
}

// Builds a stored index over `values` in `dir` and returns the opened
// mutable handle.
std::unique_ptr<MutableStoredIndex> BuildMutable(
    const std::filesystem::path& dir, const std::vector<uint32_t>& values,
    StorageScheme scheme = StorageScheme::kBitmapLevel,
    const std::string& codec_name = "none",
    Encoding encoding = Encoding::kRange) {
  BitmapIndex index = BitmapIndex::Build(
      values, kCardinality, BaseSequence::FromLsbFirst({3, 2}), encoding);
  const Codec* codec = CodecByName(codec_name);
  EXPECT_NE(codec, nullptr);
  std::unique_ptr<StoredIndex> stored;
  Status s = StoredIndex::Write(index, dir, scheme, *codec, &stored);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::unique_ptr<MutableStoredIndex> mutable_index;
  s = MutableStoredIndex::Open(dir, &mutable_index);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return mutable_index;
}

// Asserts every selection query over `index` matches the scan oracle over
// the logical column.
void ExpectMatchesOracle(const MutableStoredIndex& index,
                         const std::vector<uint32_t>& logical,
                         const std::string& context) {
  for (const Query& q : RestrictedSelectionQueries(kCardinality)) {
    Status status;
    Bitvector got =
        index.Evaluate(EvalAlgorithm::kAuto, q.op, q.v, nullptr, nullptr,
                       &status);
    ASSERT_TRUE(status.ok()) << context << ": " << status.ToString();
    Bitvector expected = ScanEvaluate(logical, q.op, q.v);
    ASSERT_EQ(got, expected)
        << context << " op=" << static_cast<int>(q.op) << " v=" << q.v;
  }
}

TEST(MutableStoredIndex, AppendDeleteCompactRoundTrip) {
  TempDir tmp;
  std::vector<uint32_t> logical = SeedValues();
  auto index = BuildMutable(tmp.path() / "idx", logical);

  // Append two batches.
  ASSERT_TRUE(index->Append(std::vector<uint32_t>{0, 5, kNullValue}).ok());
  logical.insert(logical.end(), {0, 5, kNullValue});
  ExpectMatchesOracle(*index, logical, "after append 1");
  ASSERT_TRUE(index->Append(std::vector<uint32_t>{2}).ok());
  logical.push_back(2);
  ExpectMatchesOracle(*index, logical, "after append 2");

  // Delete base and delta rows; deleted rows read as NULL.
  ASSERT_TRUE(index->Delete(std::vector<uint32_t>{1, 2, 24}).ok());
  logical[1] = logical[2] = logical[24] = kNullValue;
  ExpectMatchesOracle(*index, logical, "after delete");
  EXPECT_EQ(index->num_tombstones(), 3u);
  EXPECT_EQ(index->num_delta_rows(), 4u);
  EXPECT_EQ(index->num_records(), logical.size());

  // Reopen from disk: the log and tombstones replay to the same state.
  index.reset();
  std::unique_ptr<MutableStoredIndex> reopened;
  ASSERT_TRUE(MutableStoredIndex::Open(tmp.path() / "idx", &reopened).ok());
  EXPECT_EQ(reopened->num_delta_rows(), 4u);
  EXPECT_EQ(reopened->num_tombstones(), 3u);
  ExpectMatchesOracle(*reopened, logical, "after reopen");

  // Compact: generation bumps, sidecars fold away, bits unchanged.
  ASSERT_TRUE(reopened->Compact().ok());
  EXPECT_EQ(reopened->generation(), 1u);
  EXPECT_FALSE(reopened->has_pending());
  EXPECT_EQ(reopened->num_records(), logical.size());
  ExpectMatchesOracle(*reopened, logical, "after compact");
  EXPECT_FALSE(
      Env::Default()->FileExists(tmp.path() / "idx" / DeltaLogFileName(0)));
  EXPECT_FALSE(
      Env::Default()->FileExists(tmp.path() / "idx" / TombFileName(0)));

  // And again from disk, then continue mutating at generation 1.
  reopened.reset();
  std::unique_ptr<MutableStoredIndex> gen1;
  ASSERT_TRUE(MutableStoredIndex::Open(tmp.path() / "idx", &gen1).ok());
  EXPECT_EQ(gen1->generation(), 1u);
  ExpectMatchesOracle(*gen1, logical, "gen1 reopen");
  ASSERT_TRUE(gen1->Append(std::vector<uint32_t>{4, 4}).ok());
  logical.insert(logical.end(), {4, 4});
  ASSERT_TRUE(gen1->Delete(std::vector<uint32_t>{0}).ok());
  logical[0] = kNullValue;
  ExpectMatchesOracle(*gen1, logical, "gen1 mutations");
  ASSERT_TRUE(gen1->Compact().ok());
  EXPECT_EQ(gen1->generation(), 2u);
  ExpectMatchesOracle(*gen1, logical, "gen2");
}

// Compaction must not pull the old generation's blobs out from under an
// in-flight reader: a query fetches base bitmaps lazily by path, so its
// pinned pre-compaction snapshot has to keep the *files* alive, not just
// the in-memory StoredIndex.  The sweep of the superseded generation is
// deferred until the last such snapshot is released — the regression test
// for the "compaction never invalidates a running read" guarantee.
TEST(MutableStoredIndex, CompactionDefersSweepUntilReadersRelease) {
  TempDir tmp;
  std::vector<uint32_t> logical = SeedValues();
  auto index = BuildMutable(tmp.path() / "idx", logical);
  ASSERT_TRUE(index->Append(std::vector<uint32_t>{1, 4}).ok());
  std::vector<uint32_t> pre = logical;
  pre.insert(pre.end(), {1, 4});

  // Pin the pre-compaction snapshot the way a concurrent query does (no
  // bitmap has been fetched yet: every read below happens post-compaction).
  std::unique_ptr<QuerySource> pinned = index->OpenQuerySource();

  ASSERT_TRUE(index->Delete(std::vector<uint32_t>{0}).ok());
  std::vector<uint32_t> post = pre;
  post[0] = kNullValue;
  ASSERT_TRUE(index->Compact().ok());
  EXPECT_EQ(index->generation(), 1u);

  // The old generation's blobs are still on disk (the pinned snapshot
  // holds them), and evaluating through the snapshot — lazily reading
  // those blobs — still matches the pre-compaction oracle exactly.
  const Env& env = *Env::Default();
  EXPECT_TRUE(env.FileExists(tmp.path() / "idx" / "index.meta"));
  for (const Query& q : RestrictedSelectionQueries(kCardinality)) {
    Bitvector got =
        EvaluatePredicate(*pinned, EvalAlgorithm::kAuto, q.op, q.v, nullptr);
    ASSERT_TRUE(pinned->status().ok()) << pinned->status().ToString();
    ASSERT_EQ(got, ScanEvaluate(pre, q.op, q.v))
        << "pinned snapshot op=" << static_cast<int>(q.op) << " v=" << q.v;
  }
  // The handle itself already serves generation 1.
  ExpectMatchesOracle(*index, post, "post-compaction handle");

  // Releasing the last pre-compaction reader runs the deferred sweep.
  pinned.reset();
  EXPECT_FALSE(env.FileExists(tmp.path() / "idx" / "index.meta"));
  EXPECT_FALSE(env.FileExists(tmp.path() / "idx" / DeltaLogFileName(0)));
  EXPECT_TRUE(env.FileExists(tmp.path() / "idx" / "g1_index.meta"));
  ExpectMatchesOracle(*index, post, "after sweep");
}

// The overlay must be bit- AND stats-identical (scans and logical ops) to
// an index rebuilt from scratch over the logical column: tombstoned rows
// charge no extra bitmap scans, and delta reads are attributed to the
// same fetch as the base read they ride on.
TEST(MutableStoredIndex, OverlayStatsMatchRebuild) {
  for (StorageScheme scheme :
       {StorageScheme::kBitmapLevel, StorageScheme::kComponentLevel,
        StorageScheme::kIndexLevel}) {
    TempDir tmp;
    std::vector<uint32_t> logical = SeedValues();
    auto index = BuildMutable(tmp.path() / "idx", logical, scheme);
    ASSERT_TRUE(index->Append(std::vector<uint32_t>{1, kNullValue, 3}).ok());
    logical.insert(logical.end(), {1, kNullValue, 3});
    ASSERT_TRUE(index->Delete(std::vector<uint32_t>{0, 25, 5, 9}).ok());
    for (uint32_t r : {0u, 25u, 5u, 9u}) logical[r] = kNullValue;

    // The rebuilt twin, stored the same way.
    TempDir rebuilt_tmp;
    BitmapIndex rebuilt = BitmapIndex::Build(
        logical, kCardinality, index->base()->base(), Encoding::kRange);
    std::unique_ptr<StoredIndex> rebuilt_stored;
    ASSERT_TRUE(StoredIndex::Write(rebuilt, rebuilt_tmp.path() / "idx",
                                   scheme, index->base()->codec(),
                                   &rebuilt_stored)
                    .ok());

    for (const Query& q : RestrictedSelectionQueries(kCardinality)) {
      EvalStats overlay_stats, rebuild_stats;
      Status s1, s2;
      Bitvector got = index->Evaluate(EvalAlgorithm::kAuto, q.op, q.v,
                                      &overlay_stats, nullptr, &s1);
      Bitvector want = rebuilt_stored->Evaluate(EvalAlgorithm::kAuto, q.op,
                                                q.v, &rebuild_stats, nullptr,
                                                &s2);
      ASSERT_TRUE(s1.ok() && s2.ok());
      ASSERT_EQ(got, want) << "scheme " << static_cast<int>(scheme);
      EXPECT_EQ(overlay_stats.bitmap_scans, rebuild_stats.bitmap_scans)
          << "scheme " << static_cast<int>(scheme) << " v=" << q.v;
      EXPECT_EQ(overlay_stats.TotalOps(), rebuild_stats.TotalOps())
          << "scheme " << static_cast<int>(scheme) << " v=" << q.v;
    }
  }
}

// With nothing pending, the mutable handle is a pure passthrough: bits,
// stats (including bytes read), and the compressed-domain fetch path all
// match the base StoredIndex exactly.
TEST(MutableStoredIndex, CleanPassthroughParity) {
  TempDir tmp;
  std::vector<uint32_t> logical = SeedValues();
  auto index = BuildMutable(tmp.path() / "idx", logical,
                            StorageScheme::kBitmapLevel, "wah");
  ASSERT_FALSE(index->has_pending());
  std::shared_ptr<const StoredIndex> base = index->base();

  ExecOptions auto_exec;
  auto_exec.engine = EngineKind::kAuto;
  const ExecOptions* const exec_variants[] = {nullptr, &auto_exec};
  for (const ExecOptions* exec : exec_variants) {
    for (const Query& q : RestrictedSelectionQueries(kCardinality)) {
      EvalStats via_mutable, via_base;
      Status s1, s2;
      Bitvector got = index->Evaluate(EvalAlgorithm::kAuto, q.op, q.v,
                                      &via_mutable, nullptr, &s1, exec);
      Bitvector want = base->Evaluate(EvalAlgorithm::kAuto, q.op, q.v,
                                      &via_base, nullptr, &s2, exec);
      ASSERT_TRUE(s1.ok() && s2.ok());
      ASSERT_EQ(got, want);
      EXPECT_EQ(via_mutable, via_base) << "auto=" << (exec != nullptr);
    }
  }
}

TEST(MutableStoredIndex, TornTailIsRepairedOnOpen) {
  TempDir tmp;
  std::vector<uint32_t> logical = SeedValues();
  {
    auto index = BuildMutable(tmp.path() / "idx", logical);
    ASSERT_TRUE(index->Append(std::vector<uint32_t>{1, 2}).ok());
    ASSERT_TRUE(index->Append(std::vector<uint32_t>{3}).ok());
  }
  logical.insert(logical.end(), {1, 2});  // the surviving acknowledged batch

  // Simulate a crash mid-write: chop bytes off the second record.
  const std::filesystem::path log_path =
      tmp.path() / "idx" / DeltaLogFileName(0);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(Env::Default()->ReadFileBytes(log_path, &bytes).ok());
  std::vector<uint8_t> torn(bytes.begin(), bytes.end() - 3);
  ASSERT_TRUE(Env::Default()
                  ->WriteFileAtomic(log_path,
                                    std::span<const uint8_t>(torn))
                  .ok());

  obs::Counter& recoveries =
      obs::MetricsRegistry::Global().GetCounter("storage.recoveries");
  const int64_t recoveries_before = recoveries.value();
  std::unique_ptr<MutableStoredIndex> reopened;
  ASSERT_TRUE(MutableStoredIndex::Open(tmp.path() / "idx", &reopened).ok());
  EXPECT_EQ(reopened->num_delta_rows(), 2u);  // {3} was never acknowledged
  EXPECT_EQ(recoveries.value(), recoveries_before + 1);
  ExpectMatchesOracle(*reopened, logical, "after torn-tail repair");

  // The repaired log keeps accepting appends, and a further reopen sees
  // a fully intact log (no second repair).
  ASSERT_TRUE(reopened->Append(std::vector<uint32_t>{5}).ok());
  logical.push_back(5);
  reopened.reset();
  std::unique_ptr<MutableStoredIndex> again;
  ASSERT_TRUE(MutableStoredIndex::Open(tmp.path() / "idx", &again).ok());
  EXPECT_EQ(recoveries.value(), recoveries_before + 1);
  ExpectMatchesOracle(*again, logical, "append after repair");
}

TEST(MutableStoredIndex, MidLogRotFailsTyped) {
  TempDir tmp;
  std::vector<uint32_t> logical = SeedValues();
  {
    auto index = BuildMutable(tmp.path() / "idx", logical);
    ASSERT_TRUE(index->Append(std::vector<uint32_t>{1, 2}).ok());
    ASSERT_TRUE(index->Append(std::vector<uint32_t>{3}).ok());
  }
  const std::filesystem::path log_path =
      tmp.path() / "idx" / DeltaLogFileName(0);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(Env::Default()->ReadFileBytes(log_path, &bytes).ok());
  bytes[kDeltaLogHeaderSize + 10] ^= 0x10;  // first record's payload
  ASSERT_TRUE(Env::Default()
                  ->WriteFileAtomic(log_path,
                                    std::span<const uint8_t>(bytes))
                  .ok());
  std::unique_ptr<MutableStoredIndex> reopened;
  Status s = MutableStoredIndex::Open(tmp.path() / "idx", &reopened);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
}

TEST(MutableStoredIndex, ScrubCoversSidecars) {
  TempDir tmp;
  std::vector<uint32_t> logical = SeedValues();
  auto index = BuildMutable(tmp.path() / "idx", logical);
  ASSERT_TRUE(index->Append(std::vector<uint32_t>{1, 2}).ok());
  ASSERT_TRUE(index->Append(std::vector<uint32_t>{0}).ok());
  ASSERT_TRUE(index->Delete(std::vector<uint32_t>{3}).ok());
  index.reset();

  auto state_of = [](const format::ScrubReport& report,
                     const std::string& name)
      -> std::optional<format::FileCheck::State> {
    for (const format::FileCheck& f : report.files) {
      if (f.name == name) return f.state;
    }
    return std::nullopt;
  };

  // Intact sidecars scrub clean.
  {
    format::ScrubReport report;
    ASSERT_TRUE(
        format::ScrubIndexDir(*Env::Default(), tmp.path() / "idx", &report)
            .ok());
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(state_of(report, DeltaLogFileName(0)),
              format::FileCheck::State::kOk);
    EXPECT_EQ(state_of(report, TombFileName(0)),
              format::FileCheck::State::kOk);
  }

  const std::filesystem::path log_path =
      tmp.path() / "idx" / DeltaLogFileName(0);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(Env::Default()->ReadFileBytes(log_path, &bytes).ok());

  // A torn tail is RECOVERABLE: reported, but the index still verifies.
  {
    std::vector<uint8_t> torn(bytes.begin(), bytes.end() - 2);
    ASSERT_TRUE(Env::Default()
                    ->WriteFileAtomic(log_path,
                                      std::span<const uint8_t>(torn))
                    .ok());
    format::ScrubReport report;
    ASSERT_TRUE(
        format::ScrubIndexDir(*Env::Default(), tmp.path() / "idx", &report)
            .ok());
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(state_of(report, DeltaLogFileName(0)),
              format::FileCheck::State::kRecoverable);
  }

  // Mid-log rot is CORRUPT and fails verification.
  {
    std::vector<uint8_t> rotted = bytes;
    rotted[kDeltaLogHeaderSize + 9] ^= 0x08;
    ASSERT_TRUE(Env::Default()
                    ->WriteFileAtomic(log_path,
                                      std::span<const uint8_t>(rotted))
                    .ok());
    format::ScrubReport report;
    ASSERT_TRUE(
        format::ScrubIndexDir(*Env::Default(), tmp.path() / "idx", &report)
            .ok());
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(state_of(report, DeltaLogFileName(0)),
              format::FileCheck::State::kCorrupt);
    ASSERT_TRUE(Env::Default()
                    ->WriteFileAtomic(log_path,
                                      std::span<const uint8_t>(bytes))
                    .ok());
  }

  // A corrupt tombstone blob also fails verification.
  {
    const std::filesystem::path tomb_path =
        tmp.path() / "idx" / TombFileName(0);
    std::vector<uint8_t> tomb_bytes;
    ASSERT_TRUE(Env::Default()->ReadFileBytes(tomb_path, &tomb_bytes).ok());
    std::vector<uint8_t> rotted = tomb_bytes;
    rotted.back() ^= 0x01;
    ASSERT_TRUE(Env::Default()
                    ->WriteFileAtomic(tomb_path,
                                      std::span<const uint8_t>(rotted))
                    .ok());
    format::ScrubReport report;
    ASSERT_TRUE(
        format::ScrubIndexDir(*Env::Default(), tmp.path() / "idx", &report)
            .ok());
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(state_of(report, TombFileName(0)),
              format::FileCheck::State::kCorrupt);
    ASSERT_TRUE(Env::Default()
                    ->WriteFileAtomic(tomb_path,
                                      std::span<const uint8_t>(tomb_bytes))
                    .ok());
  }

  // Sidecars of a *different* generation are flagged as orphans (and not
  // content-checked), never silently ignored.
  {
    std::vector<uint8_t> stale = EncodeDeltaLogHeader(7);
    ASSERT_TRUE(Env::Default()
                    ->WriteFileAtomic(tmp.path() / "idx" / DeltaLogFileName(7),
                                      std::span<const uint8_t>(stale))
                    .ok());
    format::ScrubReport report;
    ASSERT_TRUE(
        format::ScrubIndexDir(*Env::Default(), tmp.path() / "idx", &report)
            .ok());
    EXPECT_TRUE(report.clean());  // orphans don't fail verification
    EXPECT_EQ(state_of(report, DeltaLogFileName(7)),
              format::FileCheck::State::kUnverified);
  }
}

TEST(MutableStoredIndex, MutationValidation) {
  TempDir tmp;
  std::vector<uint32_t> logical = SeedValues();
  auto index = BuildMutable(tmp.path() / "idx", logical);
  // Value rank outside the domain.
  Status s = index->Append(std::vector<uint32_t>{kCardinality});
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  // Row outside the index.
  s = index->Delete(std::vector<uint32_t>{static_cast<uint32_t>(
      logical.size())});
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  // Neither left residue behind.
  EXPECT_FALSE(index->has_pending());
  // Empty batches are no-ops.
  EXPECT_TRUE(index->Append({}).ok());
  EXPECT_TRUE(index->Delete({}).ok());
  // Compacting a clean index is a no-op that keeps the generation.
  EXPECT_TRUE(index->Compact().ok());
  EXPECT_EQ(index->generation(), 0u);
}

TEST(MutableStoredIndex, ManifestGenerationRoundTrip) {
  format::Manifest manifest;
  manifest["index.meta"] = {12, 0xABCD};
  std::vector<uint8_t> gen0 = format::EncodeManifest(manifest, 0);
  std::vector<uint8_t> gen5 = format::EncodeManifest(manifest, 5);
  // Generation 0 stays byte-identical to the legacy encoding (no gen
  // line), so pre-mutation directories round-trip untouched.
  EXPECT_EQ(gen0, format::EncodeManifest(manifest));
  EXPECT_NE(gen0, gen5);

  format::Manifest decoded;
  uint32_t generation = 99;
  ASSERT_TRUE(format::DecodeManifest(gen0, &decoded, &generation).ok());
  EXPECT_EQ(generation, 0u);
  ASSERT_TRUE(format::DecodeManifest(gen5, &decoded, &generation).ok());
  EXPECT_EQ(generation, 5u);
  EXPECT_EQ(decoded.size(), 1u);

  EXPECT_EQ(StoredIndex::GenerationPrefix(0), "");
  EXPECT_EQ(StoredIndex::GenerationPrefix(3), "g3_");
}

// Deleted rows become permanent NULL holes: compaction preserves N and row
// ids, and the rows stay invisible forever after.
TEST(MutableStoredIndex, TombstonesBecomePermanentNulls) {
  TempDir tmp;
  std::vector<uint32_t> logical = SeedValues();
  auto index = BuildMutable(tmp.path() / "idx", logical);
  ASSERT_TRUE(index->Delete(std::vector<uint32_t>{2, 3}).ok());
  logical[2] = logical[3] = kNullValue;
  ASSERT_TRUE(index->Compact().ok());
  EXPECT_EQ(index->num_records(), logical.size());
  EXPECT_EQ(index->num_tombstones(), 0u);  // folded into the base as NULLs
  ExpectMatchesOracle(*index, logical, "post-compact nulls");

  // Row ids are stable: a delete issued against post-compaction ids hits
  // the same physical rows.
  ASSERT_TRUE(index->Delete(std::vector<uint32_t>{4}).ok());
  logical[4] = kNullValue;
  ExpectMatchesOracle(*index, logical, "delete after compact");
}

}  // namespace
}  // namespace bix
