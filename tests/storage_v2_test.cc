// Fault-tolerant storage format: V2 blob round-trips, checksum detection,
// manifest atomicity under injected crash faults, V1 rejection, retry
// against transient errors, sibling reconstruction, and the direct
// stored-WAH fetch path.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/crc32c.h"
#include "compress/wah_codec.h"
#include "core/bitmap_index.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "storage/format.h"
#include "storage/stored_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace bix {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "bix_v2_test_XXXXXX")
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

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

// XORs one byte of a file in place (out-of-band, as bit rot would).
void FlipByteOnDisk(const std::filesystem::path& path, uint64_t offset,
                    uint8_t mask = 0x01) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char b;
  f.read(&b, 1);
  b = static_cast<char>(b ^ mask);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
  ASSERT_TRUE(f.good());
}

uint64_t FileSize(const std::filesystem::path& path) {
  return std::filesystem::file_size(path);
}

RetryPolicy NoSleepRetry(int max_attempts = 4) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.sleep = [](int64_t) {};
  return policy;
}

BitmapIndex MakeIndex(Encoding encoding, uint32_t c = 10, size_t n = 400,
                      uint64_t seed = 11) {
  std::vector<uint32_t> values = GenerateUniform(n, c, seed);
  values[7] = kNullValue;
  return BitmapIndex::Build(values, c, BaseSequence::SingleComponent(c),
                            encoding);
}

// --- format unit tests ----------------------------------------------------

TEST(FormatTest, BlobFileRoundTripsAcrossBlockBoundaries) {
  for (size_t payload_size :
       {size_t{0}, size_t{1}, size_t{4095}, size_t{4096}, size_t{4097},
        size_t{3 * 4096 + 17}}) {
    std::vector<uint8_t> payload(payload_size);
    for (size_t i = 0; i < payload_size; ++i) {
      payload[i] = static_cast<uint8_t>(i * 31 + 7);
    }
    std::vector<uint8_t> image = format::EncodeBlobFile(payload, 12345);
    format::CheckedBlob blob;
    ASSERT_TRUE(format::DecodeBlobFile(image, "t", &blob).ok())
        << payload_size;
    EXPECT_EQ(blob.payload, payload);
    EXPECT_EQ(blob.raw_size, 12345u);
  }
}

// The in-place decoder must give DecodeBlobFile's verdict on `image`
// without a file CRC, and with the manifest's CRC of `intact` must reject
// exactly when the bytes differ from it — as the manifest check that used
// to run first did, with its text and one counted failure.  A manifest CRC
// that matches the damaged bytes (a file written wrong) must leave the
// header and block checks to give DecodeBlobFile's verdict.
void ExpectViewAgreesWithDecodeBlobFile(std::span<const uint8_t> image,
                                        std::span<const uint8_t> intact,
                                        const std::string& ctx) {
  format::CheckedBlob blob;
  const Status copied = format::DecodeBlobFile(image, "t", &blob);
  format::BlobView view;
  const Status plain = format::DecodeBlobView(image, "t", std::nullopt, &view);
  EXPECT_EQ(plain.code(), copied.code()) << ctx;
  EXPECT_EQ(plain.ToString(), copied.ToString()) << ctx;
  if (plain.ok()) {
    EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(),
                           blob.payload.begin(), blob.payload.end()))
        << ctx;
    EXPECT_EQ(view.raw_size, blob.raw_size) << ctx;
  }
  const bool same_bytes =
      std::equal(image.begin(), image.end(), intact.begin(), intact.end());
  const int64_t failures_before = CounterValue("storage.checksum_failures");
  format::BlobView checked;
  const Status fused = format::DecodeBlobView(
      image, "t", Crc32c(intact.data(), intact.size()), &checked);
  if (same_bytes) {
    EXPECT_EQ(fused.code(), copied.code()) << ctx;
    EXPECT_EQ(fused.ToString(), copied.ToString()) << ctx;
  } else {
    EXPECT_EQ(fused.code(), Status::Code::kCorruption) << ctx;
    EXPECT_NE(fused.ToString().find("checksum differs from manifest: t"),
              std::string::npos)
        << ctx << ": " << fused.ToString();
    EXPECT_EQ(CounterValue("storage.checksum_failures") - failures_before, 1)
        << ctx;
  }
  const Status agreeing = format::DecodeBlobView(
      image, "t", Crc32c(image.data(), image.size()), &checked);
  EXPECT_EQ(agreeing.code(), copied.code()) << ctx;
  EXPECT_EQ(agreeing.ToString(), copied.ToString()) << ctx;
}

TEST(FormatTest, EveryFlippedBitIsDetected) {
  std::vector<uint8_t> payload(5000, 0xC3);
  std::vector<uint8_t> image = format::EncodeBlobFile(payload, 5000);
  ExpectViewAgreesWithDecodeBlobFile(image, image, "intact");
  // Probe a byte in the header, the CRC array, each payload block, and the
  // final byte; every single-bit flip must be caught.
  const size_t probes[] = {0, 5, 22, 29, 40, 4000, image.size() - 1};
  for (size_t byte : probes) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = image;
      bad[byte] ^= static_cast<uint8_t>(1 << bit);
      format::CheckedBlob blob;
      Status s = format::DecodeBlobFile(bad, "t", &blob);
      EXPECT_EQ(s.code(), Status::Code::kCorruption)
          << "byte=" << byte << " bit=" << bit;
      ExpectViewAgreesWithDecodeBlobFile(
          bad, image,
          "byte=" + std::to_string(byte) + " bit=" + std::to_string(bit));
    }
  }
}

TEST(FormatTest, CorruptionNamesTheBadBlock) {
  std::vector<uint8_t> payload(3 * 4096, 0x11);
  std::vector<uint8_t> image = format::EncodeBlobFile(payload, payload.size());
  // Header is 32 + 3*4 bytes; flip a byte inside payload block 1.
  size_t header = 32 + 3 * 4;
  std::vector<uint8_t> bad = image;
  bad[header + 4096 + 100] ^= 0x80;
  format::CheckedBlob blob;
  Status s = format::DecodeBlobFile(bad, "c0_b3.bm", &blob);
  ASSERT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_NE(s.ToString().find("block 1"), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("c0_b3.bm"), std::string::npos);
}

TEST(FormatTest, UncheckedV1BlobIsRejectedAsBadMagic) {
  // The pre-checksum "BIXF" layout (magic, u64 raw_size, payload) carries
  // nothing to verify; it must fail typed, never decode.
  std::vector<uint8_t> image = {'B', 'I', 'X', 'F'};
  uint64_t raw_size = 3;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&raw_size);
  image.insert(image.end(), p, p + 8);
  image.insert(image.end(), {0xAA, 0xBB, 0xCC});
  image.resize(40, 0);  // long enough to pass any length check
  format::CheckedBlob blob;
  Status s = format::DecodeBlobFile(image, "c0_b0.bm", &blob);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  EXPECT_NE(s.ToString().find("bad magic"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(blob.payload.empty());
}

TEST(FormatTest, TruncatedBlobImagesAreRejectedTyped) {
  // A torn write leaves a prefix of the image; every prefix — down to an
  // empty file — and an image with trailing junk must fail as Corruption,
  // never decode a partial payload.
  std::vector<uint8_t> payload(2 * 4096 + 300);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 13 + 1);
  }
  std::vector<uint8_t> image = format::EncodeBlobFile(payload, payload.size());
  for (size_t len = 0; len < image.size(); ++len) {
    format::CheckedBlob blob;
    Status s = format::DecodeBlobFile(
        std::span<const uint8_t>(image.data(), len), "t", &blob);
    ASSERT_EQ(s.code(), Status::Code::kCorruption) << "len=" << len;
    ASSERT_TRUE(blob.payload.empty()) << "len=" << len;
    ExpectViewAgreesWithDecodeBlobFile(
        std::span<const uint8_t>(image.data(), len), image,
        "len=" + std::to_string(len));
  }
  std::vector<uint8_t> longer = image;
  longer.push_back(0);
  format::CheckedBlob blob;
  EXPECT_EQ(format::DecodeBlobFile(longer, "t", &blob).code(),
            Status::Code::kCorruption);
  EXPECT_TRUE(blob.payload.empty());
  ExpectViewAgreesWithDecodeBlobFile(longer, image, "trailing junk");
}

TEST(FormatTest, ManifestRoundTripAndSelfChecksum) {
  format::Manifest manifest;
  manifest["a.bm"] = {100, 0xDEADBEEF};
  manifest["index.meta"] = {37, 0x01020304};
  std::vector<uint8_t> bytes = format::EncodeManifest(manifest);
  format::Manifest back;
  ASSERT_TRUE(format::DecodeManifest(bytes, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back["a.bm"].size, 100u);
  EXPECT_EQ(back["a.bm"].crc, 0xDEADBEEFu);
  // Any altered byte breaks the trailing self-checksum.  (Flip bit 0, not
  // 0x20: case-flipping a hex digit of the CRC line itself parses to the
  // same value.)
  for (size_t i = 0; i < bytes.size() - 1; ++i) {
    std::vector<uint8_t> bad = bytes;
    bad[i] ^= 0x01;
    format::Manifest m;
    EXPECT_FALSE(format::DecodeManifest(bad, &m).ok()) << "byte " << i;
  }
}

// --- stored index: verified writes ---------------------------------------

TEST(StorageV2Test, WriteProducesVerifiedManifestedIndex) {
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  EXPECT_TRUE(
      std::filesystem::exists(dir.path() / "idx" / format::kManifestFile));

  format::ScrubReport report;
  ASSERT_TRUE(
      format::ScrubIndexDir(*Env::Default(), dir.path() / "idx", &report)
          .ok());
  EXPECT_TRUE(report.manifest_ok);
  EXPECT_TRUE(report.clean());
  for (const auto& f : report.files) {
    EXPECT_EQ(f.state, format::FileCheck::State::kOk) << f.name;
  }
}

TEST(StorageV2Test, FlippedPayloadByteFailsTheQueryLoudly) {
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  // Flip one payload byte of a range bitmap (header is 36 bytes for a
  // single-block file); range encodings have no sibling redundancy, so the
  // query must fail with Corruption — never return a wrong foundset.
  FlipByteOnDisk(dir.path() / "idx" / "c0_b5.bm", 40);
  int64_t failures_before = CounterValue("storage.checksum_failures");
  Status status;
  Bitvector result = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 5,
                                      nullptr, nullptr, &status);
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
  EXPECT_TRUE(result.empty());
  EXPECT_GT(CounterValue("storage.checksum_failures"), failures_before);
  // Untouched bitmaps still serve queries.
  Status ok_status;
  Bitvector got = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 2,
                                   nullptr, nullptr, &ok_status);
  EXPECT_TRUE(ok_status.ok());
  EXPECT_EQ(got, index.Evaluate(CompareOp::kLe, 2));
  // A scrub pinpoints the damaged file.
  format::ScrubReport report;
  ASSERT_TRUE(
      format::ScrubIndexDir(*Env::Default(), dir.path() / "idx", &report)
          .ok());
  EXPECT_FALSE(report.clean());
  bool found = false;
  for (const auto& f : report.files) {
    if (f.name == "c0_b5.bm") {
      found = true;
      EXPECT_EQ(f.state, format::FileCheck::State::kCorrupt);
    }
  }
  EXPECT_TRUE(found);
}

TEST(StorageV2Test, ManifestWriteIsAtomicUnderCrash) {
  // Simulate a crash between the manifest temp-write and its rename: the
  // Write fails, and the directory must refuse to open (v2 meta, no
  // manifest) rather than serve whatever subset of files landed.
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  FaultPlan plan;
  plan.faults.push_back(
      {FaultSpec::Kind::kRenameFail, format::kManifestFile, 0, 0, 1});
  FaultInjectingEnv env(Env::Default(), std::move(plan));
  StoredIndexOptions options;
  options.env = &env;
  options.retry = NoSleepRetry();
  std::unique_ptr<StoredIndex> stored;
  Status s = StoredIndex::Write(index, dir.path() / "idx",
                                StorageScheme::kBitmapLevel, none, &stored,
                                options);
  EXPECT_EQ(s.code(), Status::Code::kIoError) << s.ToString();
  EXPECT_FALSE(
      std::filesystem::exists(dir.path() / "idx" / format::kManifestFile));

  std::unique_ptr<StoredIndex> reopened;
  Status open_status = StoredIndex::Open(dir.path() / "idx", &reopened);
  EXPECT_EQ(open_status.code(), Status::Code::kCorruption)
      << open_status.ToString();

  // Re-materializing over the torn directory (fault healed) recovers fully.
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  EXPECT_EQ(stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 4),
            index.Evaluate(CompareOp::kLe, 4));
}

TEST(StorageV2Test, StaleManifestIsRemovedBeforeOverwrite) {
  // Crash mid-overwrite of an existing index: the old manifest must not
  // make the half-overwritten directory look complete.
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  FaultPlan plan;
  plan.faults.push_back(
      {FaultSpec::Kind::kRenameFail, format::kManifestFile, 0, 0, 1});
  FaultInjectingEnv env(Env::Default(), std::move(plan));
  StoredIndexOptions options;
  options.env = &env;
  std::unique_ptr<StoredIndex> rewritten;
  EXPECT_FALSE(StoredIndex::Write(index, dir.path() / "idx",
                                  StorageScheme::kBitmapLevel, none,
                                  &rewritten, options)
                   .ok());
  // The stale manifest is gone, so the torn state is detectable.
  EXPECT_FALSE(
      std::filesystem::exists(dir.path() / "idx" / format::kManifestFile));
  std::unique_ptr<StoredIndex> reopened;
  EXPECT_FALSE(StoredIndex::Open(dir.path() / "idx", &reopened).ok());
}

// --- unchecksummed V1 indexes are refused --------------------------------

void WriteV1File(const std::filesystem::path& path,
                 std::span<const uint8_t> payload, uint64_t raw_size) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write("BIXF", 4);
  f.write(reinterpret_cast<const char*>(&raw_size), 8);
  f.write(reinterpret_cast<const char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  ASSERT_TRUE(f.good());
}

TEST(StorageV2Test, ManifestlessV1IndexIsRejectedTyped) {
  // Hand-write a pre-fault-tolerance BS index: "BIXF" blob files, a v1
  // meta, no manifest.  Nothing in it can be verified, so it must not
  // open, and scrub must call it unclean.
  BitmapIndex index = MakeIndex(Encoding::kRange, /*c=*/8, /*n=*/300);
  TempDir dir;
  std::filesystem::path idx = dir.path() / "idx";
  std::filesystem::create_directories(idx);
  int64_t stored_bytes = 0;
  const IndexComponent& comp = index.component(0);
  for (int j = 0; j < comp.num_stored_bitmaps(); ++j) {
    std::vector<uint8_t> raw = comp.stored(static_cast<uint32_t>(j)).ToBytes();
    WriteV1File(idx / ("c0_b" + std::to_string(j) + ".bm"), raw, raw.size());
    stored_bytes += static_cast<int64_t>(raw.size());
  }
  std::vector<uint8_t> nn = index.non_null().ToBytes();
  WriteV1File(idx / "nonnull.bm", nn, nn.size());
  std::ofstream meta(idx / "index.meta");
  meta << "bix_index_meta_v1\n"
       << "records " << index.num_records() << "\n"
       << "cardinality " << index.cardinality() << "\n"
       << "encoding range\nscheme BS\ncodec none\n"
       << "stored_bytes " << stored_bytes << "\n"
       << "uncompressed_bytes " << stored_bytes << "\nbases_lsb 8\n";
  meta.close();

  std::unique_ptr<StoredIndex> stored;
  Status s = StoredIndex::Open(idx, &stored);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  EXPECT_NE(s.ToString().find("no manifest"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(stored, nullptr);

  format::ScrubReport report;
  ASSERT_TRUE(format::ScrubIndexDir(*Env::Default(), idx, &report).ok());
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.manifest_ok);
  ASSERT_EQ(report.files.size(), 1u);
  EXPECT_EQ(report.files[0].name, format::kManifestFile);
  EXPECT_EQ(report.files[0].state, format::FileCheck::State::kMissing);
}

// Rewrites <dir>/<name> and re-lists it in the manifest with its new size
// and CRC, so the manifest itself vouches for the replacement bytes.
void ReplaceManifestedFile(const std::filesystem::path& dir,
                           const std::string& name,
                           const std::vector<uint8_t>& bytes) {
  {
    std::ofstream f(dir / name, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good());
  }
  format::Manifest manifest;
  ASSERT_TRUE(format::ReadManifest(*Env::Default(), dir, &manifest).ok());
  ASSERT_EQ(manifest.count(name), 1u) << name;
  manifest[name] = {bytes.size(), Crc32c(bytes.data(), bytes.size())};
  ASSERT_TRUE(format::WriteManifest(*Env::Default(), dir, manifest).ok());
}

TEST(StorageV2Test, DeletedManifestFailsOpenAndScrubNamesIt) {
  // A complete V2 index whose manifest is lost afterwards is
  // indistinguishable from a torn materialize: Open refuses it typed, and
  // scrub reports the manifest as the one missing file.
  BitmapIndex index = MakeIndex(Encoding::kEquality);
  const NullCodec none;
  TempDir dir;
  std::filesystem::path idx = dir.path() / "idx";
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, idx, StorageScheme::kBitmapLevel,
                                 none, &stored)
                  .ok());
  stored.reset();
  ASSERT_TRUE(std::filesystem::remove(idx / format::kManifestFile));

  std::unique_ptr<StoredIndex> reopened;
  Status s = StoredIndex::Open(idx, &reopened);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  EXPECT_NE(s.ToString().find("no manifest"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(reopened, nullptr);

  format::ScrubReport report;
  ASSERT_TRUE(format::ScrubIndexDir(*Env::Default(), idx, &report).ok());
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.manifest_ok);
  ASSERT_EQ(report.files.size(), 1u);
  EXPECT_EQ(report.files[0].name, format::kManifestFile);
  EXPECT_EQ(report.files[0].state, format::FileCheck::State::kMissing);
}

TEST(StorageV2Test, V1BlobListedInManifestFailsTheQuery) {
  // Even when the manifest's size and CRC match it, an unchecksummed
  // "BIXF" bitmap file is not decoded: the query needing it fails typed
  // and the others still answer.
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::filesystem::path idx = dir.path() / "idx";
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, idx, StorageScheme::kBitmapLevel,
                                 none, &stored)
                  .ok());
  stored.reset();
  std::vector<uint8_t> raw = index.component(0).stored(5).ToBytes();
  std::vector<uint8_t> v1 = {'B', 'I', 'X', 'F'};
  const uint64_t raw_size = raw.size();
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&raw_size);
  v1.insert(v1.end(), p, p + 8);
  v1.insert(v1.end(), raw.begin(), raw.end());
  ReplaceManifestedFile(idx, "c0_b5.bm", v1);
  if (HasFatalFailure()) return;

  ASSERT_TRUE(StoredIndex::Open(idx, &stored).ok());
  Status status;
  Bitvector result = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 5,
                                      nullptr, nullptr, &status);
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
  EXPECT_NE(status.ToString().find("bad magic"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(result.empty());
  Status ok_status;
  EXPECT_EQ(stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 2, nullptr,
                             nullptr, &ok_status),
            index.Evaluate(CompareOp::kLe, 2));
  EXPECT_TRUE(ok_status.ok()) << ok_status.ToString();
}

TEST(StorageV2Test, V1MetaHeaderIsRejected) {
  // Only the V2 metadata header opens, even when the manifest vouches for
  // a "bix_index_meta_v1" file byte for byte.
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::filesystem::path idx = dir.path() / "idx";
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, idx, StorageScheme::kBitmapLevel,
                                 none, &stored)
                  .ok());
  stored.reset();
  std::ifstream in(idx / "index.meta", std::ios::binary);
  std::string meta((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::string v2_header = "bix_index_meta_v2";
  ASSERT_EQ(meta.compare(0, v2_header.size(), v2_header), 0) << meta;
  meta.replace(0, v2_header.size(), "bix_index_meta_v1");
  ReplaceManifestedFile(idx, "index.meta",
                        std::vector<uint8_t>(meta.begin(), meta.end()));
  if (HasFatalFailure()) return;

  Status s = StoredIndex::Open(idx, &stored);
  EXPECT_EQ(s.code(), Status::Code::kCorruption) << s.ToString();
  EXPECT_NE(s.ToString().find("unknown metadata header"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(stored, nullptr);
}

// --- retry ----------------------------------------------------------------

TEST(StorageV2Test, TransientReadErrorsAreRetriedToSuccess) {
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> written;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &written)
                  .ok());
  FaultPlan plan;
  plan.faults.push_back({FaultSpec::Kind::kTransient, "c0_b5.bm", 0, 0, 2});
  FaultInjectingEnv env(Env::Default(), std::move(plan));
  StoredIndexOptions options;
  options.env = &env;
  options.retry = NoSleepRetry(4);
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Open(dir.path() / "idx", &stored, options).ok());
  int64_t retries_before = CounterValue("storage.retries");
  Status status;
  Bitvector got = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 5,
                                   nullptr, nullptr, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got, index.Evaluate(CompareOp::kLe, 5));
  EXPECT_GE(CounterValue("storage.retries") - retries_before, 2);
  EXPECT_EQ(env.injected_errors(), 2);
}

TEST(StorageV2Test, StickyReadErrorsExhaustRetriesAndFail) {
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> written;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &written)
                  .ok());
  FaultPlan plan;
  plan.faults.push_back({FaultSpec::Kind::kSticky, "c0_b5.bm", 0, 0, 1});
  FaultInjectingEnv env(Env::Default(), std::move(plan));
  StoredIndexOptions options;
  options.env = &env;
  options.retry = NoSleepRetry(3);
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Open(dir.path() / "idx", &stored, options).ok());
  Status status;
  Bitvector result = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 5,
                                      nullptr, nullptr, &status);
  EXPECT_EQ(status.code(), Status::Code::kIoError);
  EXPECT_TRUE(result.empty());
}

// --- reconstruction -------------------------------------------------------

TEST(StorageV2Test, CorruptEqualitySliceIsReconstructedFromSiblings) {
  BitmapIndex index = MakeIndex(Encoding::kEquality);  // base 10 > 2
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  FlipByteOnDisk(dir.path() / "idx" / "c0_b4.bm", 40);
  int64_t reconstructions_before = CounterValue("storage.reconstructions");
  int64_t degraded_before = CounterValue("storage.degraded_queries");
  Status status;
  EvalStats stats;
  Bitvector got = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kEq, 4,
                                   &stats, nullptr, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got, index.Evaluate(CompareOp::kEq, 4));
  EXPECT_EQ(CounterValue("storage.reconstructions"), reconstructions_before + 1);
  EXPECT_EQ(CounterValue("storage.degraded_queries"), degraded_before + 1);

  // Queries not touching the damaged slice are not degraded.
  Status clean_status;
  Bitvector other = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kEq, 7,
                                     nullptr, nullptr, &clean_status);
  EXPECT_TRUE(clean_status.ok());
  EXPECT_EQ(other, index.Evaluate(CompareOp::kEq, 7));
  EXPECT_EQ(CounterValue("storage.degraded_queries"), degraded_before + 1);
}

TEST(StorageV2Test, ReconstructionGivesUpWhenTwoSlicesAreDamaged) {
  // E^4 = B_nn AND NOT(OR of siblings) needs every sibling; with two slices
  // rotted the query must fail, not guess.
  BitmapIndex index = MakeIndex(Encoding::kEquality);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  FlipByteOnDisk(dir.path() / "idx" / "c0_b4.bm", 40);
  FlipByteOnDisk(dir.path() / "idx" / "c0_b6.bm", 40);
  Status status;
  Bitvector result = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kEq, 4,
                                      nullptr, nullptr, &status);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
  EXPECT_TRUE(result.empty());
}

// --- stored-WAH direct fetch ----------------------------------------------

TEST(StorageV2Test, WahCodecServesCompressedDomainEngineDirectly) {
  for (Encoding encoding : {Encoding::kRange, Encoding::kEquality}) {
    BitmapIndex index = MakeIndex(encoding, /*c=*/12, /*n=*/777, /*seed=*/29);
    const Codec* wah = CodecByName("wah");
    ASSERT_NE(wah, nullptr);
    TempDir dir;
    std::unique_ptr<StoredIndex> stored;
    ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                   StorageScheme::kBitmapLevel, *wah, &stored)
                    .ok());
    ExecOptions auto_exec;
    auto_exec.engine = EngineKind::kAuto;
    ExecOptions plain_exec;
    plain_exec.engine = EngineKind::kPlain;
    int64_t direct_before = CounterValue("storage.wah_direct_fetches");
    for (const Query& q : AllSelectionQueries(index.cardinality())) {
      EvalStats wah_stats, plain_stats;
      Status ws, ps;
      Bitvector via_wah = stored->Evaluate(EvalAlgorithm::kAuto, q.op, q.v,
                                           &wah_stats, nullptr, &ws, &auto_exec);
      Bitvector via_plain =
          stored->Evaluate(EvalAlgorithm::kAuto, q.op, q.v, &plain_stats,
                           nullptr, &ps, &plain_exec);
      ASSERT_TRUE(ws.ok());
      ASSERT_TRUE(ps.ok());
      ASSERT_EQ(via_wah, via_plain) << ToString(q.op) << " " << q.v;
      ASSERT_EQ(via_wah, index.Evaluate(q.op, q.v));
      // Same accounting on both fetch paths.
      EXPECT_EQ(wah_stats.bitmap_scans, plain_stats.bitmap_scans);
      EXPECT_EQ(wah_stats.bytes_read, plain_stats.bytes_read);
    }
    EXPECT_GT(CounterValue("storage.wah_direct_fetches"), direct_before)
        << "stored WAH payloads were never handed to the engine directly";
  }
}

// kAuto over a stored WAH column whose equality bitmaps are too noisy for
// the 1/32 keep rule: such an operand is dense on use.  A `<=` OR-side folds
// every one of them from its code words and inflates none; an `=` ANDs two
// of them and inflates both, as before.  Bits and EvalStats equal kPlain's.
TEST(WahDenseOnUseTest, OrSideFoldsNoisyOperandsWithoutInflating) {
  constexpr size_t kRows = 3 * 65536 + 37;
  // 10% NULLs scattered at random keep B_nn noisy too, so the final AND
  // with B_nn is dense x dense and inflates nothing either.
  std::mt19937_64 rng(20261023);
  std::vector<uint32_t> values(kRows);
  for (uint32_t& v : values) {
    v = rng() % 10 == 0 ? kNullValue : static_cast<uint32_t>(rng() % 40);
  }
  struct Column {
    const char* name;
    std::vector<uint32_t> bases_msb;
    CompareOp op;
    int64_t expected_inflations;
  };
  const Column columns[] = {{"one component, <=", {40}, CompareOp::kLe, 0},
                            {"two components, =", {8, 5}, CompareOp::kEq, 2}};
  ExecOptions auto_exec;
  auto_exec.engine = EngineKind::kAuto;
  ExecOptions plain_exec;
  plain_exec.engine = EngineKind::kPlain;
  for (const Column& column : columns) {
    BitmapIndex index =
        BitmapIndex::Build(values, 40, BaseSequence::FromMsbFirst(column.bases_msb),
                           Encoding::kEquality);
    TempDir dir;
    std::unique_ptr<StoredIndex> stored;
    ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                   StorageScheme::kBitmapLevel,
                                   *CodecByName("wah"), &stored)
                    .ok());
    // Every `<=` here ORs two or more bitmaps (a one-term OR-side is the
    // operand itself, which the AND with B_nn then inflates).
    for (int64_t v : {1, 7, 19, 20, 37}) {
      const std::string ctx =
          std::string(column.name) + " v=" + std::to_string(v);
      EvalStats auto_stats, plain_stats;
      Status as, ps;
      const int64_t inflated0 = CounterValue("wah_engine.inflated_operands");
      const int64_t compressed0 = CounterValue("wah_engine.compressed_ops");
      Bitvector got = stored->Evaluate(EvalAlgorithm::kEqualityEval, column.op,
                                       v, &auto_stats, nullptr, &as, &auto_exec);
      const int64_t inflated =
          CounterValue("wah_engine.inflated_operands") - inflated0;
      const int64_t compressed =
          CounterValue("wah_engine.compressed_ops") - compressed0;
      Bitvector want = stored->Evaluate(EvalAlgorithm::kEqualityEval, column.op,
                                        v, &plain_stats, nullptr, &ps,
                                        &plain_exec);
      ASSERT_TRUE(as.ok()) << ctx;
      ASSERT_TRUE(ps.ok()) << ctx;
      ASSERT_EQ(got, want) << ctx;
      ASSERT_EQ(got, index.Evaluate(column.op, v)) << ctx;
      EXPECT_EQ(auto_stats, plain_stats) << ctx;
      EXPECT_EQ(inflated, column.expected_inflations) << ctx;
      if (column.op == CompareOp::kLe) {
        // The OR-side ran as one fold over code words.
        ASSERT_GT(auto_stats.or_ops, 0) << ctx;
        EXPECT_EQ(compressed, auto_stats.or_ops) << ctx;
      }
    }
  }
}

// Stored-WAH bitmap blobs record the byte image's size as their raw size
// without the writer ever building that image: every file must be exactly
// the blob of EncodeBits(bitmap) with raw size ceil(N / 8), the index's
// uncompressed_bytes must sum those sizes, and the whole directory must
// keep its golden digest.
TEST(StorageV2Test, WahCodecBitmapFilesAreByteExact) {
  const size_t n = 777;  // not a multiple of 8
  const uint64_t raw_size = (n + 7) / 8;
  const std::pair<Encoding, uint32_t> golden_digest[] = {
      {Encoding::kRange, 0x59e94ba1u}, {Encoding::kEquality, 0xddfa81a5u}};
  for (const auto& [encoding, digest] : golden_digest) {
    BitmapIndex index = MakeIndex(encoding, /*c=*/12, n, /*seed=*/29);
    TempDir dir;
    std::unique_ptr<StoredIndex> stored;
    ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                   StorageScheme::kBitmapLevel,
                                   *CodecByName("wah"), &stored)
                    .ok());
    const uint32_t slots = NumStoredBitmaps(encoding, 12);
    EXPECT_EQ(stored->uncompressed_bytes(),
              static_cast<int64_t>(slots * raw_size));
    std::unique_ptr<StoredIndex> reopened;
    ASSERT_TRUE(StoredIndex::Open(dir.path() / "idx", &reopened).ok());
    EXPECT_EQ(reopened->uncompressed_bytes(), stored->uncompressed_bytes());

    for (uint32_t j = 0; j < slots; ++j) {
      const std::filesystem::path path =
          dir.path() / "idx" / ("c0_b" + std::to_string(j) + ".bm");
      std::ifstream f(path, std::ios::binary);
      const std::vector<uint8_t> on_disk(
          (std::istreambuf_iterator<char>(f)),
          std::istreambuf_iterator<char>());
      EXPECT_EQ(on_disk,
                format::EncodeBlobFile(
                    WahCodec::EncodeBits(index.Fetch(0, j, nullptr)),
                    raw_size))
          << path;
    }

    // Digest over every file, in name order.
    std::map<std::string, std::vector<char>> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir.path() / "idx")) {
      std::ifstream f(entry.path(), std::ios::binary);
      files[entry.path().filename().string()] = std::vector<char>(
          std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
    }
    uint32_t crc = 0;
    for (const auto& [name, bytes] : files) {
      crc = Crc32cExtend(crc, name.data(), name.size());
      crc = Crc32cExtend(crc, bytes.data(), bytes.size());
    }
    EXPECT_EQ(crc, digest) << ToString(encoding) << " digest " << std::hex
                           << crc;
  }
}

TEST(StorageV2Test, WahCodecWorksAsPlainCodecOnAllSchemes) {
  const Codec* wah = CodecByName("wah");
  ASSERT_NE(wah, nullptr);
  for (StorageScheme scheme :
       {StorageScheme::kBitmapLevel, StorageScheme::kComponentLevel,
        StorageScheme::kIndexLevel}) {
    BitmapIndex index = MakeIndex(Encoding::kRange, /*c=*/9, /*n=*/500);
    TempDir dir;
    std::unique_ptr<StoredIndex> stored;
    ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx", scheme, *wah,
                                   &stored)
                    .ok());
    for (const Query& q : AllSelectionQueries(index.cardinality())) {
      ASSERT_EQ(stored->Evaluate(EvalAlgorithm::kAuto, q.op, q.v),
                index.Evaluate(q.op, q.v))
          << ToString(scheme) << " " << ToString(q.op) << " " << q.v;
    }
  }
}

TEST(StorageV2Test, CorruptWahPayloadFallsBackAndFails) {
  // A corrupt stored-WAH file must not crash the compressed-domain engine:
  // FetchWah declines, Fetch re-reads, and the query fails with Corruption
  // (range encoding: no reconstruction).
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const Codec* wah = CodecByName("wah");
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, *wah, &stored)
                  .ok());
  FlipByteOnDisk(dir.path() / "idx" / "c0_b5.bm",
                 FileSize(dir.path() / "idx" / "c0_b5.bm") - 1);
  ExecOptions exec;
  exec.engine = EngineKind::kAuto;
  Status status;
  Bitvector result = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 5,
                                      nullptr, nullptr, &status, &exec);
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
  EXPECT_TRUE(result.empty());
}

// One flipped bit in each region of a multi-block stored-WAH file: the
// manifest's whole-file CRC, checked in the same pass as the header and
// block CRCs, must catch it first, so FetchWah declines and the dense
// Fetch fails with the manifest text, each counting one checksum failure
// (range encoding: no reconstruction).
TEST(StorageV2Test, FlipInEveryRegionOfAWahFileFailsTheManifestCheck) {
  BitmapIndex index = MakeIndex(Encoding::kRange, /*c=*/12, /*n=*/200000);
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel,
                                 *CodecByName("wah"), &stored)
                  .ok());
  const std::filesystem::path file = dir.path() / "idx" / "c0_b5.bm";
  std::vector<uint8_t> image;
  {
    std::ifstream f(file, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GE(image.size(), 32u);
  uint32_t num_blocks = 0;
  std::memcpy(&num_blocks, image.data() + 24, 4);
  ASSERT_GE(num_blocks, 3u) << "the file must span a first, middle and last "
                               "payload block";
  const uint64_t header = 32 + 4 * uint64_t{num_blocks};
  const std::pair<const char*, uint64_t> regions[] = {
      {"magic", 1},
      {"payload_size", 13},
      {"block-CRC array", 28 + 4 * (num_blocks / 2) + 2},
      {"header_crc", header - 2},
      {"first payload block", header + 100},
      {"middle payload block",
       header + format::kDefaultBlockSize * (num_blocks / 2) + 5},
      {"last payload block", image.size() - 1},
  };
  for (const auto& [region, offset] : regions) {
    FlipByteOnDisk(file, offset, 0x10);
    auto source = stored->OpenQuerySource();
    EvalStats stats;
    const int64_t failures_before = CounterValue("storage.checksum_failures");
    EXPECT_EQ(source->FetchWah(0, 5, &stats), nullptr) << region;
    EXPECT_EQ(CounterValue("storage.checksum_failures") - failures_before, 1)
        << region;
    source->Fetch(0, 5, &stats);
    EXPECT_EQ(CounterValue("storage.checksum_failures") - failures_before, 2)
        << region;
    EXPECT_EQ(source->status().code(), Status::Code::kCorruption) << region;
    EXPECT_NE(source->status().ToString().find(
                  "checksum differs from manifest: c0_b5.bm"),
              std::string::npos)
        << region << ": " << source->status().ToString();
    FlipByteOnDisk(file, offset, 0x10);  // restore
  }
  // Restored, the same file serves both fetch kinds again.
  auto source = stored->OpenQuerySource();
  const WahBitvector* wah = source->FetchWah(0, 5, nullptr);
  ASSERT_NE(wah, nullptr);
  EXPECT_TRUE(wah->ToBitvector() == index.Fetch(0, 5, nullptr));
  EXPECT_TRUE(source->Fetch(0, 5, nullptr) == index.Fetch(0, 5, nullptr));
  EXPECT_TRUE(source->status().ok());
}

// A dense read of a wah-stored bitmap reports decompression time (what
// perfbench's compress.decode_us sums); the compressed-domain handover
// reports none, and both read the same payload bytes.
TEST(StorageV2Test, DenseReadOfAWahFileCountsDecodeTime) {
  BitmapIndex index = MakeIndex(Encoding::kRange, /*c=*/12, /*n=*/200000);
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel,
                                 *CodecByName("wah"), &stored)
                  .ok());
  FetchedOperand handed;
  ASSERT_TRUE(stored->FetchBitmapOperand(0, 5, /*wah=*/true, &handed).ok());
  EXPECT_EQ(handed.decompress_seconds, 0.0);
  FetchedOperand dense;
  ASSERT_TRUE(stored->FetchBitmapOperand(0, 5, /*wah=*/false, &dense).ok());
  EXPECT_GT(dense.decompress_seconds, 0.0);
  EXPECT_EQ(dense.payload_bytes, handed.payload_bytes);
  EXPECT_TRUE(dense.dense == handed.wah.ToBitvector());
}

}  // namespace
}  // namespace bix
