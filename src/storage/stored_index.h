// Physical bitmap-index storage schemes (paper Section 9.1).
//
// Three organizations of an index's (N x n) bit-matrix on disk:
//  * BS (bitmap-level):    one file per bitmap (column-major; N bits each).
//                          A query reads only the bitmaps it needs.
//  * CS (component-level): one file per component, row-major — record r's
//                          n_i component bits are adjacent.  A query must
//                          read every component file and pay CPU to extract
//                          the relevant bitmap columns.
//  * IS (index-level):     the whole index row-major in one file; the
//                          max-component IS index is a projection index.
//
// Every file may be compressed with a Codec ("cBS"/"cCS"/"cIS" in the
// paper's naming).  StoredIndex materializes an in-memory BitmapIndex to a
// directory, reopens it later, and evaluates predicates with the shared
// algorithms, accounting bytes read and decompression time.
//
// Fault tolerance (DESIGN.md §10): files are written in the checksummed V2
// format (storage/format.h) and the directory carries an atomic manifest,
// so torn materializes and bit rot are detected, never silently served.
// All I/O flows through an injectable Env; reads failing with transient
// I/O errors are retried per RetryPolicy, and for BS equality-encoded
// indexes a corrupt bitmap is reconstructed from its sibling slices
// (E^j = B_nn AND NOT (OR of the other E^i)) rather than failing the
// query.  Queries that cannot recover fail with a non-OK Status — a
// corrupted index never produces a silently wrong foundset.

#ifndef BIX_STORAGE_STORED_INDEX_H_
#define BIX_STORAGE_STORED_INDEX_H_

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "compress/codec.h"
#include "core/base_sequence.h"
#include "core/bitmap_index.h"
#include "core/eval.h"
#include "core/eval_stats.h"
#include "core/predicate.h"
#include "core/row_order.h"
#include "core/status.h"
#include "storage/env.h"
#include "storage/format.h"
#include "storage/recovery.h"

namespace bix {

enum class StorageScheme {
  kBitmapLevel,     // BS
  kComponentLevel,  // CS
  kIndexLevel,      // IS
};

std::string_view ToString(StorageScheme scheme);

/// A per-query read view over a stored index: a BitmapSource whose fetches
/// hit storage along the scheme's access path, plus the query-scoped error
/// state Evaluate() consults.  Obtained from StoredIndex::OpenQuerySource;
/// the serve layer wraps one per query to interpose its shared-operand
/// cache between the evaluation algorithms and storage.
class QuerySource : public BitmapSource {
 public:
  /// First failure any fetch hit (fetches after a failure return empty
  /// bitmaps; the query must be discarded when this is non-OK).
  virtual const Status& status() const = 0;
  /// True when a corrupt bitmap was served via sibling-slice
  /// reconstruction (the query succeeded but counts as degraded).
  virtual bool degraded() const = 0;
};

/// How a StoredIndex talks to storage.  Defaults: the real filesystem, 4
/// read attempts with decorrelated-jitter backoff.
struct StoredIndexOptions {
  const Env* env = nullptr;  // nullptr -> Env::Default()
  RetryPolicy retry;
};

/// One materialized BS operand, as fetched by StoredIndex::
/// FetchBitmapOperand: exactly one of dense/wah is populated (per the
/// `wah` argument), plus the accounting the caller charges to whichever
/// query owns the fetch.
struct FetchedOperand {
  Bitvector dense;
  WahBitvector wah;
  /// Compressed payload bytes read, including sibling slices read for
  /// reconstruction (even when reconstruction ultimately fails — the
  /// bytes moved either way).
  int64_t payload_bytes = 0;
  double decompress_seconds = 0;
  /// The dense bitmap was served via sibling-slice reconstruction.
  bool degraded = false;
};

class StoredIndex {
 public:
  /// Writes `index` to `dir` (created if missing; existing index files are
  /// overwritten) and returns an open handle through `*out`.  Any stale
  /// manifest is removed first and a fresh one is written *last*
  /// (atomically), so a crash mid-write can never leave a directory that
  /// opens as a verified index with mixed contents.
  ///
  /// When the index was built over row-reordered input (core/row_order.h),
  /// pass the sort permutation (`row_order[physical] = logical`, length ==
  /// num_records) and its kind: the permutation is stored as a checksummed
  /// sidecar (format::kRowOrderFile) listed in the manifest, and Evaluate()
  /// remaps every foundset back to original row ids.  An empty or identity
  /// permutation writes no sidecar and no extra metadata, so unsorted
  /// output stays byte-identical to what this code always wrote.
  static Status Write(const BitmapIndex& index,
                      const std::filesystem::path& dir, StorageScheme scheme,
                      const Codec& codec, std::unique_ptr<StoredIndex>* out,
                      const StoredIndexOptions& options = {},
                      std::span<const uint32_t> row_order = {},
                      RowOrder order_kind = RowOrder::kNone);

  /// Generalization of Write over any BitmapSource, materializing under
  /// `generation`-tagged file names ("g<N>_" prefix; generation 0 uses the
  /// bare legacy names).  This is compaction's writer: a delta-overlay
  /// source folds base + log + tombstones, and because generation N+1's
  /// files never collide with generation N's, the atomic manifest rename
  /// at the end is the single instant the directory flips — a crash
  /// before it leaves the old generation fully intact (plus inert orphan
  /// files a later open garbage-collects).  Unlike Write, an existing
  /// manifest is left in place until the new one renames over it.
  static Status WriteFromSource(const BitmapSource& source,
                                const std::filesystem::path& dir,
                                StorageScheme scheme, const Codec& codec,
                                std::unique_ptr<StoredIndex>* out,
                                const StoredIndexOptions& options,
                                uint32_t generation,
                                std::span<const uint32_t> row_order = {},
                                RowOrder order_kind = RowOrder::kNone);

  /// Opens an index previously materialized with Write.
  static Status Open(const std::filesystem::path& dir,
                     std::unique_ptr<StoredIndex>* out,
                     const StoredIndexOptions& options = {});

  /// "" for generation 0, "g<N>_" otherwise — the file-name prefix that
  /// keeps concurrent generations of blobs from colliding in one dir.
  static std::string GenerationPrefix(uint32_t generation);

  const BaseSequence& base() const { return base_; }
  Encoding encoding() const { return encoding_; }
  StorageScheme scheme() const { return scheme_; }
  const Codec& codec() const { return *codec_; }
  size_t num_records() const { return num_records_; }
  uint32_t cardinality() const { return cardinality_; }

  /// The sort permutation the index was built under (perm[physical] =
  /// logical; see core/row_order.h), empty for an unsorted index.  The
  /// stored bitmaps — and everything fetched through OpenQuerySource /
  /// FetchBitmapOperand — live in this physical order; Evaluate() already
  /// remaps its foundset, but callers consuming raw fetches must remap
  /// through this permutation themselves.
  const std::vector<uint32_t>& row_order() const { return row_order_; }
  RowOrder row_order_kind() const { return row_order_kind_; }

  /// Compaction generation this directory is at (0 = as first built).
  /// Serves as the operand-cache epoch: serve-layer cache keys carry it,
  /// so operands fetched from an older generation can never satisfy a
  /// query admitted after a compaction swapped the index.
  uint32_t generation() const { return generation_; }

  /// Total on-disk payload bytes of the index bitmap files (compressed
  /// size; excludes the metadata and the shared non-null bitmap).
  int64_t stored_bytes() const { return stored_bytes_; }
  /// Size the same bitmaps occupy uncompressed (the BS baseline numerator
  /// of the paper's Table 4 percentages).
  int64_t uncompressed_bytes() const { return uncompressed_bytes_; }

  /// Evaluates `A op v`, reading from disk along the scheme's access path:
  /// BS fetches only the needed bitmap files; CS/IS read every file of the
  /// index once per query and extract bitmap columns from the row-major
  /// payload.  `stats->bytes_read` accumulates compressed payload bytes;
  /// `*decompress_seconds` (if non-null) accumulates time spent inflating.
  ///
  /// On a read or corruption failure the error is reported through
  /// `*status` (and an empty bitvector returned); when `status` is null
  /// such failures abort via BIX_CHECK.  Transient read errors are retried
  /// per the open options before surfacing; a checksum failure on a BS
  /// equality bitmap (base > 2) is healed by reconstructing the slice from
  /// its siblings, counting the query as degraded.
  ///
  /// For a row-reordered index the returned foundset is already remapped to
  /// logical (original) row ids — bit-identical to an unsorted build of the
  /// same column.  The remap adds no scans, ops, or bytes to `stats`.
  ///
  /// The bitwise combining runs on the engine `exec` selects (null means
  /// ExecOptions{}): dense record and replay (core/eval.h) on
  /// `exec->num_threads` lanes for kPlain, or the compressed-domain WAH
  /// engine (exec/wah_engine.h) for kAuto, which keeps each fetched bitmap
  /// compressed or inflates it by its compression ratio.  A BS index stored
  /// with the "wah" codec hands its stored payloads to the WAH engine
  /// directly (BitmapSource::FetchWah), with no inflate on the fetch path.
  /// Bytes read, EvalStats, and the result are identical across engines.
  Bitvector Evaluate(EvalAlgorithm algorithm, CompareOp op, int64_t v,
                     EvalStats* stats = nullptr,
                     double* decompress_seconds = nullptr,
                     Status* status = nullptr,
                     const ExecOptions* exec = nullptr) const;

  /// Fetches one stored bitmap of a BS-scheme index (aborts on other
  /// schemes — their operands live in per-query row-major buffers, not
  /// per-bitmap files).  This is the operand-materialization kernel behind
  /// the per-query source's fetches:
  ///  * `wah` false: read + verify + decode with full retry handling; a
  ///    corrupt equality slice (base > 2) is healed from its siblings
  ///    (`out->degraded`).  Non-OK only when recovery failed.
  ///  * `wah` true: parse the stored wah-codec payload for the
  ///    compressed-domain engine; kNotFound when the column does not store
  ///    wah operand payloads, and the read/verify/parse failure otherwise
  ///    — callers fall back to the dense kind, which re-reads with full
  ///    recovery.  No reconstruction, no retry beyond ReadCheckedBlob's.
  /// Thread-safe: reads only immutable open-time state and the (thread-
  /// safe) Env.
  Status FetchBitmapOperand(int component, uint32_t slot, bool wah,
                            FetchedOperand* out) const;

  /// Opens a per-query source over this index (the same view Evaluate()
  /// uses internally).  For CS/IS the construction eagerly reads the
  /// index files — check status() before evaluating.  `stats` and
  /// `decompress_seconds` (both optional) accumulate bytes read and
  /// inflate time across the source's lifetime.  The source borrows this
  /// index and must not outlive it.
  std::unique_ptr<QuerySource> OpenQuerySource(
      EvalStats* stats = nullptr, double* decompress_seconds = nullptr) const;

 private:
  StoredIndex() = default;

  Status LoadMeta(const std::filesystem::path& dir);

  /// Reads one index file with retry, checks that the manifest lists it
  /// with this size, and points `*entry` at its manifest entry.
  Status ReadListedFile(const std::string& name, std::vector<uint8_t>* bytes,
                        const format::ManifestEntry** entry) const;

  /// ReadListedFile + the manifest's whole-file CRC.
  Status ReadCheckedFile(const std::string& name,
                         std::vector<uint8_t>* bytes) const;

  /// ReadListedFile, then the manifest's whole-file CRC and the V2 header
  /// and block CRCs in one pass over the bytes (format::DecodeBlobView).
  /// `*view` points into `*bytes`: the payload is not copied.
  Status ReadCheckedBlob(const std::string& name, std::vector<uint8_t>* bytes,
                         format::BlobView* view) const;

  /// ReadCheckedBlob + codec decode.
  /// `stats`/`decompress_seconds` account payload bytes and inflate time.
  Status ReadBlob(const std::string& name, std::vector<uint8_t>* raw,
                  EvalStats* stats, double* decompress_seconds) const;

  /// Reads one BS bitmap file as a dense N-bit vector.  WAH operand
  /// payloads go through ReadWahOperand, then ToBitvector (parse,
  /// validation and inflate all count as decompression time); other
  /// codecs go through ReadBlob's byte image.
  /// Payload bytes accumulate into `*payload_bytes` once the file
  /// verifies, even if the decode then fails.
  Status ReadBitmap(const std::string& name, Bitvector* out,
                    int64_t* payload_bytes, double* decompress_seconds) const;

  /// ReadCheckedBlob + WahCodec::DecodeToWah straight from the payload
  /// view, for a column storing WAH operand payloads: one verified pass and
  /// one copy of the code words.  Same byte accounting as ReadBitmap; the
  /// parse and validation add to `*decompress_seconds` unless it is null.
  Status ReadWahOperand(const std::string& name, WahBitvector* out,
                        int64_t* payload_bytes,
                        double* decompress_seconds) const;

  /// Rebuilds equality slice E^slot from its siblings (see the .cc for the
  /// identity and its preconditions).  Sibling payload bytes accumulate
  /// into `*payload_bytes` even on failure.
  bool ReconstructSlice(int component, uint32_t slot, Bitvector* out,
                        int64_t* payload_bytes,
                        double* decompress_seconds) const;

  friend class StoredQuerySource;

  const Env* env_ = nullptr;
  RetryPolicy retry_;
  std::filesystem::path dir_;
  uint32_t generation_ = 0;
  std::string prefix_;  // GenerationPrefix(generation_), cached
  BaseSequence base_;
  Encoding encoding_ = Encoding::kRange;
  StorageScheme scheme_ = StorageScheme::kBitmapLevel;
  const Codec* codec_ = nullptr;
  size_t num_records_ = 0;
  uint32_t cardinality_ = 0;
  Bitvector non_null_;
  int64_t stored_bytes_ = 0;
  int64_t uncompressed_bytes_ = 0;
  // Sort permutation from the roworder.perm sidecar; empty when unsorted.
  std::vector<uint32_t> row_order_;
  RowOrder row_order_kind_ = RowOrder::kNone;
  format::Manifest manifest_;
  // Stored-slot offset of each component within an IS row.
  std::vector<uint32_t> slot_offsets_;
  uint32_t row_stride_ = 0;  // total stored bitmaps (IS row width)
};

}  // namespace bix

#endif  // BIX_STORAGE_STORED_INDEX_H_
