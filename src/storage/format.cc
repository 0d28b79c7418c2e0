#include "storage/format.h"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "bitmap/crc32c.h"
#include "storage/delta.h"
#include "storage/recovery.h"

namespace bix::format {

namespace {

constexpr char kMagicV2[4] = {'B', 'I', 'X', '2'};
constexpr char kMagicPerm[4] = {'B', 'I', 'X', 'P'};

// All on-disk integers are little-endian; the library targets x86-64 /
// little-endian hosts, so fixed-width loads are plain memcpy.
void Put32(std::vector<uint8_t>* out, uint32_t v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + 4);
}

void Put64(std::vector<uint8_t>* out, uint64_t v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + 8);
}

uint32_t Get32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t Get64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::string Hex8(uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

uint32_t NumBlocks(uint64_t payload_size, uint32_t block_size) {
  if (payload_size == 0) return 0;
  return static_cast<uint32_t>((payload_size + block_size - 1) / block_size);
}

}  // namespace

std::vector<uint8_t> EncodeBlobFile(std::span<const uint8_t> payload,
                                    uint64_t raw_size, uint32_t block_size) {
  if (block_size == 0) block_size = kDefaultBlockSize;
  const uint32_t num_blocks =
      NumBlocks(payload.size(), block_size);
  std::vector<uint8_t> out;
  out.reserve(32 + 4 * num_blocks + payload.size());
  out.insert(out.end(), kMagicV2, kMagicV2 + 4);
  Put64(&out, raw_size);
  Put64(&out, payload.size());
  Put32(&out, block_size);
  Put32(&out, num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    size_t begin = static_cast<size_t>(b) * block_size;
    size_t len = std::min<size_t>(block_size, payload.size() - begin);
    Put32(&out, Crc32c(payload.data() + begin, len));
  }
  Put32(&out, Crc32c(out.data(), out.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Status DecodeBlobFile(std::span<const uint8_t> file_bytes,
                      const std::string& name, CheckedBlob* out) {
  if (file_bytes.size() < 32 ||
      std::memcmp(file_bytes.data(), kMagicV2, 4) != 0) {
    return Status::Corruption("bad magic: " + name);
  }
  const uint64_t raw_size = Get64(file_bytes.data() + 4);
  const uint64_t payload_size = Get64(file_bytes.data() + 12);
  const uint32_t block_size = Get32(file_bytes.data() + 20);
  const uint32_t num_blocks = Get32(file_bytes.data() + 24);
  const size_t header_size = 32 + 4 * static_cast<size_t>(num_blocks);
  if (block_size == 0 || num_blocks != NumBlocks(payload_size, block_size) ||
      file_bytes.size() < header_size ||
      file_bytes.size() - header_size != payload_size) {
    recovery_internal::CountChecksumFailure();
    return Status::Corruption("inconsistent header (truncated?): " + name);
  }
  const uint32_t header_crc = Get32(file_bytes.data() + header_size - 4);
  if (Crc32c(file_bytes.data(), header_size - 4) != header_crc) {
    recovery_internal::CountChecksumFailure();
    return Status::Corruption("header checksum mismatch: " + name);
  }
  const uint8_t* payload = file_bytes.data() + header_size;
  std::string bad_blocks;
  for (uint32_t b = 0; b < num_blocks; ++b) {
    size_t begin = static_cast<size_t>(b) * block_size;
    size_t len = std::min<size_t>(block_size, payload_size - begin);
    uint32_t want = Get32(file_bytes.data() + 28 + 4 * static_cast<size_t>(b));
    if (Crc32c(payload + begin, len) != want) {
      if (!bad_blocks.empty()) bad_blocks += ",";
      bad_blocks += std::to_string(b);
    }
  }
  if (!bad_blocks.empty()) {
    recovery_internal::CountChecksumFailure();
    return Status::Corruption("block checksum mismatch (block " + bad_blocks +
                              "): " + name);
  }
  out->raw_size = raw_size;
  out->payload.assign(payload, payload + payload_size);
  return Status::OK();
}

Status ReadBlobFile(const Env& env, const std::filesystem::path& path,
                    CheckedBlob* out) {
  std::vector<uint8_t> bytes;
  Status s = env.ReadFileBytes(path, &bytes);
  if (!s.ok()) return s;
  return DecodeBlobFile(bytes, path.filename().string(), out);
}

std::vector<uint8_t> EncodeRowOrderPayload(std::span<const uint32_t> perm) {
  std::vector<uint8_t> out;
  out.reserve(20 + 4 * perm.size());
  out.insert(out.end(), kMagicPerm, kMagicPerm + 4);
  Put32(&out, kRowOrderVersion);
  Put64(&out, perm.size());
  for (uint32_t p : perm) Put32(&out, p);
  Put32(&out, Crc32c(out.data(), out.size()));
  return out;
}

Status DecodeRowOrderPayload(std::span<const uint8_t> payload,
                             const std::string& name,
                             std::vector<uint32_t>* perm) {
  perm->clear();
  if (payload.size() < 20) {
    return Status::Corruption("row-order sidecar truncated: " + name);
  }
  if (std::memcmp(payload.data(), kMagicPerm, 4) != 0) {
    return Status::Corruption("row-order sidecar bad magic: " + name);
  }
  const uint32_t version = Get32(payload.data() + 4);
  if (version != kRowOrderVersion) {
    return Status::Corruption("row-order sidecar version " +
                              std::to_string(version) + " unsupported: " +
                              name);
  }
  const uint64_t rows = Get64(payload.data() + 8);
  if (rows > (payload.size() - 20) / 4 || payload.size() != 20 + 4 * rows) {
    return Status::Corruption("row-order sidecar length mismatch (" +
                              std::to_string(rows) + " rows, " +
                              std::to_string(payload.size()) + " bytes): " +
                              name);
  }
  const uint32_t want = Get32(payload.data() + payload.size() - 4);
  if (Crc32c(payload.data(), payload.size() - 4) != want) {
    recovery_internal::CountChecksumFailure();
    return Status::Corruption("row-order sidecar checksum mismatch: " + name);
  }
  perm->reserve(rows);
  std::vector<uint8_t> seen(rows, 0);
  for (uint64_t i = 0; i < rows; ++i) {
    const uint32_t p = Get32(payload.data() + 16 + 4 * i);
    if (p >= rows || seen[p]) {
      perm->clear();
      return Status::Corruption(
          "row-order sidecar entry " + std::to_string(i) +
          (p >= rows ? " out of range: " : " duplicated: ") + name);
    }
    seen[p] = 1;
    perm->push_back(p);
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeManifest(const Manifest& manifest,
                                    uint32_t generation) {
  std::ostringstream os;
  os << "bix_manifest_v1\n";
  if (generation > 0) os << "gen " << generation << "\n";
  for (const auto& [name, entry] : manifest) {
    os << "file " << name << " " << entry.size << " " << Hex8(entry.crc)
       << "\n";
  }
  std::string body = os.str();
  body += "crc " + Hex8(Crc32c(body.data(), body.size())) + "\n";
  return {body.begin(), body.end()};
}

Status DecodeManifest(std::span<const uint8_t> bytes, Manifest* out,
                      uint32_t* generation) {
  out->clear();
  if (generation != nullptr) *generation = 0;
  std::string text(bytes.begin(), bytes.end());
  size_t crc_line = text.rfind("crc ");
  if (crc_line == std::string::npos ||
      (crc_line != 0 && text[crc_line - 1] != '\n')) {
    return Status::Corruption("manifest missing crc line");
  }
  uint32_t want = 0;
  if (std::sscanf(text.c_str() + crc_line, "crc %8x", &want) != 1) {
    return Status::Corruption("manifest crc line unparsable");
  }
  if (Crc32c(text.data(), crc_line) != want) {
    recovery_internal::CountChecksumFailure();
    return Status::Corruption("manifest checksum mismatch");
  }
  std::istringstream is(text.substr(0, crc_line));
  std::string header;
  std::getline(is, header);
  if (header != "bix_manifest_v1") {
    return Status::Corruption("unknown manifest header: " + header);
  }
  std::string key;
  bool saw_gen = false;
  while (is >> key) {
    if (key == "gen") {
      uint32_t gen = 0;
      if (saw_gen || !(is >> gen) || gen == 0) {
        return Status::Corruption("bad manifest gen line");
      }
      saw_gen = true;
      if (generation != nullptr) *generation = gen;
      continue;
    }
    if (key != "file") {
      return Status::Corruption("unknown manifest key: " + key);
    }
    std::string name, crc_hex;
    uint64_t size = 0;
    if (!(is >> name >> size >> crc_hex) || crc_hex.size() != 8) {
      return Status::Corruption("bad manifest entry");
    }
    ManifestEntry entry;
    entry.size = size;
    entry.crc = static_cast<uint32_t>(std::stoul(crc_hex, nullptr, 16));
    (*out)[name] = entry;
  }
  return Status::OK();
}

Status WriteManifest(const Env& env, const std::filesystem::path& dir,
                     const Manifest& manifest, uint32_t generation) {
  return env.WriteFileAtomic(dir / kManifestFile,
                             EncodeManifest(manifest, generation));
}

Status ReadManifest(const Env& env, const std::filesystem::path& dir,
                    Manifest* out, uint32_t* generation) {
  std::filesystem::path path = dir / kManifestFile;
  if (!env.FileExists(path)) {
    return Status::NotFound("no manifest in " + dir.string());
  }
  std::vector<uint8_t> bytes;
  Status s = env.ReadFileBytes(path, &bytes);
  if (!s.ok()) return s;
  return DecodeManifest(bytes, out, generation);
}

const char* ToString(FileCheck::State state) {
  switch (state) {
    case FileCheck::State::kOk: return "OK";
    case FileCheck::State::kUnverified: return "UNVERIFIED";
    case FileCheck::State::kCorrupt: return "CORRUPT";
    case FileCheck::State::kMissing: return "MISSING";
    case FileCheck::State::kRecoverable: return "RECOVERABLE";
  }
  return "?";
}

Status ScrubIndexDir(const Env& env, const std::filesystem::path& dir,
                     ScrubReport* report) {
  *report = ScrubReport();
  Manifest manifest;
  uint32_t generation = 0;
  Status ms = ReadManifest(env, dir, &manifest, &generation);
  if (!ms.ok()) {
    // Without a readable manifest nothing else in the directory can be
    // verified: report the manifest itself and stop.
    FileCheck check;
    check.name = kManifestFile;
    check.state = ms.code() == Status::Code::kNotFound
                      ? FileCheck::State::kMissing
                      : FileCheck::State::kCorrupt;
    check.detail = std::string(ms.message());
    report->files.push_back(std::move(check));
    return Status::OK();
  }
  report->manifest_ok = true;
  for (const auto& [name, entry] : manifest) {
    FileCheck check;
    check.name = name;
    std::vector<uint8_t> bytes;
    Status rs = env.ReadFileBytes(dir / name, &bytes);
    if (!rs.ok()) {
      check.state = env.FileExists(dir / name) ? FileCheck::State::kCorrupt
                                               : FileCheck::State::kMissing;
      check.detail = rs.ToString();
    } else if (bytes.size() != entry.size) {
      check.state = FileCheck::State::kCorrupt;
      check.detail = "size " + std::to_string(bytes.size()) + " != manifest " +
                     std::to_string(entry.size);
      recovery_internal::CountChecksumFailure();
    } else if (Crc32c(bytes.data(), bytes.size()) != entry.crc) {
      check.state = FileCheck::State::kCorrupt;
      check.detail = "whole-file checksum mismatch";
      // Per-block CRCs localize the damage for blob files.
      if (name.ends_with(".bm")) {
        CheckedBlob blob;
        Status bs = DecodeBlobFile(bytes, name, &blob);
        if (!bs.ok()) check.detail = std::string(bs.message());
      } else {
        recovery_internal::CountChecksumFailure();
      }
    } else if (name.ends_with(kRowOrderFile)) {
      // The permutation sidecar gets a full decode on top of the file CRC:
      // blob header, block CRCs, then the payload's own magic/length/CRC
      // and the entries-form-a-permutation check.
      CheckedBlob blob;
      std::vector<uint32_t> perm;
      Status ps = DecodeBlobFile(bytes, name, &blob);
      if (ps.ok()) ps = DecodeRowOrderPayload(blob.payload, name, &perm);
      if (!ps.ok()) {
        check.state = FileCheck::State::kCorrupt;
        check.detail = std::string(ps.message());
      } else {
        check.state = FileCheck::State::kOk;
        check.detail = std::to_string(perm.size()) + "-row permutation";
      }
    } else {
      check.state = FileCheck::State::kOk;
    }
    report->files.push_back(std::move(check));
  }
  // Mutation sidecars (g<N>.delta / g<N>.tomb) live outside the manifest —
  // the append log mutates in place, and the manifest only ever names
  // immutable blobs — so scrub them by directory listing.  Only the
  // current generation's sidecars carry live data; other generations are
  // orphans a crashed compaction left behind (open removes them).
  std::vector<std::string> names;
  if (env.ListDir(dir, &names).ok()) {
    for (const std::string& name : names) {
      uint32_t gen = 0;
      bool is_tomb = false;
      if (!ParseDeltaFileName(name, &gen, &is_tomb)) {
        // Anything else in the directory that the manifest doesn't claim is
        // an orphan — a leftover from an interrupted write or a file that
        // doesn't belong here.  Report it instead of silently skipping it.
        // (values.map is the tools-layer value dictionary; it intentionally
        // lives outside the manifest.)
        if (name != kManifestFile && name != "values.map" &&
            manifest.find(name) == manifest.end()) {
          FileCheck check;
          check.name = name;
          check.state = FileCheck::State::kUnverified;
          check.detail = "not in manifest (orphan)";
          report->files.push_back(std::move(check));
        }
        continue;
      }
      FileCheck check;
      check.name = name;
      if (gen != generation) {
        check.state = FileCheck::State::kUnverified;
        check.detail = "stale generation (orphan; removed at next open)";
        report->files.push_back(std::move(check));
        continue;
      }
      std::vector<uint8_t> bytes;
      Status rs = env.ReadFileBytes(dir / name, &bytes);
      if (!rs.ok()) {
        check.state = FileCheck::State::kCorrupt;
        check.detail = rs.ToString();
      } else if (is_tomb) {
        CheckedBlob blob;
        rs = DecodeBlobFile(bytes, name, &blob);
        if (!rs.ok()) {
          check.state = FileCheck::State::kCorrupt;
          check.detail = std::string(rs.message());
        } else {
          check.state = FileCheck::State::kOk;
        }
      } else {
        std::vector<uint32_t> values;
        DeltaLogInfo info;
        rs = ParseDeltaLog(bytes, name, &values, &info);
        if (!rs.ok()) {
          check.state = FileCheck::State::kCorrupt;
          check.detail = std::string(rs.message());
        } else if (info.generation != gen) {
          check.state = FileCheck::State::kCorrupt;
          check.detail = "log header generation " +
                         std::to_string(info.generation) +
                         " != file name generation " + std::to_string(gen);
        } else if (info.torn_bytes > 0) {
          check.state = FileCheck::State::kRecoverable;
          check.detail = "torn tail: " + std::to_string(info.torn_bytes) +
                         " unsynced byte(s) after " +
                         std::to_string(info.num_records) +
                         " intact record(s); truncated at next open";
        } else {
          check.state = FileCheck::State::kOk;
        }
      }
      report->files.push_back(std::move(check));
    }
  }
  return Status::OK();
}

}  // namespace bix::format
