// On-disk file format and index manifest for StoredIndex (V2, checksummed).
//
// V2 blob file layout (little-endian):
//   [ 0,  4)  magic "BIX2"
//   [ 4, 12)  u64 raw_size       decoded (pre-codec) payload size
//   [12, 20)  u64 payload_size   encoded payload size
//   [20, 24)  u32 block_size     bytes covered by each payload CRC
//   [24, 28)  u32 num_blocks     ceil(payload_size / block_size)
//   [28, 28+4B) u32 crc[i]       CRC32C of payload block i
//   next 4    u32 header_crc     CRC32C of everything above
//   then      payload bytes
//
// A flipped bit anywhere is detected: in the payload by its block CRC, in
// the header or CRC array by header_crc.  Block granularity means a scrub
// can say *which* 4 KiB of a file rotted, and a query touching other
// bitmaps in a CS/IS file still learns about the damage before decoding.
//
// The manifest ("index.manifest") lists every file the index consists of
// with its size and whole-file CRC32C, ends with a CRC line over its own
// bytes, and is written write-temp-fsync-rename *after* every other file:
// a crash anywhere mid-materialize leaves either no manifest (the index
// refuses to open) or a complete, consistent one — never a
// readable-but-wrong index.
//
// Manifest text format:
//   bix_manifest_v1\n
//   gen <generation>\n                   (only when generation > 0)
//   file <name> <size> <crc32c hex8>\n   (one per file, sorted)
//   crc <hex8 of all preceding bytes>\n
//
// The generation line is how compaction commits: generation-N blobs carry
// a "gN_" name prefix, the rewritten index is materialized entirely under
// the next generation's names, and the atomic manifest rename is the one
// instant the directory flips from all-old to all-new.  Generation 0
// (the build-once path) omits the line, so pre-mutation manifests are
// byte-identical to what this code always wrote.

#ifndef BIX_STORAGE_FORMAT_H_
#define BIX_STORAGE_FORMAT_H_

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "storage/env.h"

namespace bix::format {

inline constexpr uint32_t kDefaultBlockSize = 4096;
inline constexpr const char* kManifestFile = "index.manifest";

/// Row-order sidecar: the sort permutation of a row-reordered index
/// (perm[physical] = logical; see core/row_order.h).  Written only when the
/// permutation is non-identity, so unsorted indexes stay byte-identical to
/// what this code always wrote.  The payload below is wrapped in a V2 blob
/// file like every other index file and listed in the manifest.
inline constexpr const char* kRowOrderFile = "roworder.perm";
inline constexpr uint32_t kRowOrderVersion = 1;

/// A decoded blob file: the still-codec-compressed payload plus the
/// recorded raw size.
struct CheckedBlob {
  std::vector<uint8_t> payload;
  uint64_t raw_size = 0;
};

/// Serializes payload + checksummed header into one file image.
std::vector<uint8_t> EncodeBlobFile(std::span<const uint8_t> payload,
                                    uint64_t raw_size,
                                    uint32_t block_size = kDefaultBlockSize);

/// Parses a V2 file image, verifying header and per-block CRCs.  Any other
/// magic is Corruption ("bad magic"); on a checksum mismatch returns
/// Corruption naming the bad block(s) and bumps storage.checksum_failures.
Status DecodeBlobFile(std::span<const uint8_t> file_bytes,
                      const std::string& name, CheckedBlob* out);

/// Reads and decodes `path` through `env` (one whole-file read).
Status ReadBlobFile(const Env& env, const std::filesystem::path& path,
                    CheckedBlob* out);

/// Serializes a row permutation into the sidecar payload:
///   [ 0,  4)  magic "BIXP"
///   [ 4,  8)  u32 version (kRowOrderVersion)
///   [ 8, 16)  u64 rows
///   [16, 16+4*rows)  u32 perm[i]
///   last 4    u32 crc32c of everything above
/// The inner CRC is defense in depth under the blob file's block CRCs: a
/// decode from any byte source yields a typed error, never garbage rows.
std::vector<uint8_t> EncodeRowOrderPayload(std::span<const uint32_t> perm);

/// Parses + validates a row-order payload: magic, version, exact length,
/// CRC, and that the entries form a permutation of [0, rows).  Every
/// failure is Corruption naming `name`; truncated or bit-rotted input can
/// never crash or return a partial permutation.
Status DecodeRowOrderPayload(std::span<const uint8_t> payload,
                             const std::string& name,
                             std::vector<uint32_t>* perm);

struct ManifestEntry {
  uint64_t size = 0;
  uint32_t crc = 0;
};

/// name -> entry, sorted by name (map keeps serialization deterministic).
using Manifest = std::map<std::string, ManifestEntry>;

std::vector<uint8_t> EncodeManifest(const Manifest& manifest,
                                    uint32_t generation = 0);

/// Parses + verifies the manifest's own CRC line.  `generation` (optional)
/// receives the manifest's generation tag, 0 when the line is absent.
Status DecodeManifest(std::span<const uint8_t> bytes, Manifest* out,
                      uint32_t* generation = nullptr);

/// Writes the manifest atomically (write-temp-fsync-rename).
Status WriteManifest(const Env& env, const std::filesystem::path& dir,
                     const Manifest& manifest, uint32_t generation = 0);

/// Reads <dir>/index.manifest; NotFound when absent.
Status ReadManifest(const Env& env, const std::filesystem::path& dir,
                    Manifest* out, uint32_t* generation = nullptr);

/// Per-file verdict from a scrub pass.  kRecoverable marks damage the
/// open path repairs losslessly by construction (a torn delta-log tail:
/// the unsynced suffix of a crashed append) — the index is still clean.
struct FileCheck {
  enum class State { kOk, kUnverified, kCorrupt, kMissing, kRecoverable };
  std::string name;
  State state = State::kOk;
  std::string detail;
};

const char* ToString(FileCheck::State state);

struct ScrubReport {
  bool manifest_ok = false;
  std::vector<FileCheck> files;

  bool clean() const {
    if (!manifest_ok) return false;
    for (const FileCheck& f : files) {
      if (f.state == FileCheck::State::kCorrupt ||
          f.state == FileCheck::State::kMissing) {
        return false;
      }
    }
    return true;
  }
};

/// Reads every file named by the manifest, verifying manifest size +
/// whole-file CRC and (for blobs) per-block CRCs.  A missing or corrupt
/// manifest is reported as the only file (kMissing / kCorrupt): nothing
/// else can be verified without it.  Mutation sidecars (g<N>.delta append
/// logs and g<N>.tomb tombstone blobs) are scrubbed too: current-generation
/// logs are record-parsed (torn tail -> kRecoverable, rot -> kCorrupt),
/// stale generations are flagged kUnverified orphans.  Every problem is
/// reported per file in `report`.
Status ScrubIndexDir(const Env& env, const std::filesystem::path& dir,
                     ScrubReport* report);

}  // namespace bix::format

#endif  // BIX_STORAGE_FORMAT_H_
