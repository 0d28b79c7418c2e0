#include "storage/delta.h"

#include <cstring>
#include <string>
#include <utility>

#include "bitmap/crc32c.h"
#include "core/check.h"
#include "core/eval.h"
#include "exec/segmented_eval.h"
#include "obs/metrics.h"
#include "storage/format.h"

namespace bix {

namespace {

constexpr char kDeltaMagic[6] = {'B', 'I', 'X', 'W', 'A', 'L'};
constexpr uint8_t kRecordAppend = 1;

void Put16(std::vector<uint8_t>* out, uint16_t v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + 2);
}

void Put32(std::vector<uint8_t>* out, uint32_t v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + 4);
}

uint16_t Get16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

uint32_t Get32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

obs::Counter& AppendsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("storage.appends");
  return c;
}
obs::Counter& DeletesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("storage.deletes");
  return c;
}
obs::Counter& CompactionsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("storage.compactions");
  return c;
}
obs::Counter& WalBytesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("storage.wal_bytes");
  return c;
}
obs::Counter& RecoveriesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("storage.recoveries");
  return c;
}

/// Parses trailing "<digits>" of `s` starting at `pos` up to `end`.
bool ParseUint(const std::string& s, size_t pos, size_t end, uint32_t* out) {
  if (pos >= end) return false;
  uint64_t v = 0;
  for (size_t i = pos; i < end; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(s[i] - '0');
    if (v > UINT32_MAX) return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

/// Matches the index blob/meta names WriteFromSource produces, with their
/// optional "g<N>_" generation prefix: index.meta, nonnull.bm, index.bm,
/// roworder.perm, c<d>.bm, c<d>_b<d>.bm.  Never matches index.manifest,
/// values.map, the delta/tomb sidecars, or anything else a user may have
/// put in the dir — garbage collection only ever deletes names this
/// recognizes.
bool ParseIndexFileName(const std::string& name, uint32_t* generation) {
  *generation = 0;
  std::string rest = name;
  if (rest.size() > 2 && rest[0] == 'g') {
    size_t i = 1;
    while (i < rest.size() && rest[i] >= '0' && rest[i] <= '9') ++i;
    if (i > 1 && i < rest.size() && rest[i] == '_') {
      if (!ParseUint(rest, 1, i, generation)) return false;
      rest = rest.substr(i + 1);
    }
  }
  if (rest == "index.meta" || rest == "nonnull.bm" || rest == "index.bm" ||
      rest == format::kRowOrderFile) {
    return true;
  }
  // c<d>.bm / c<d>_b<d>.bm
  if (rest.size() < 4 || rest[0] != 'c' || !rest.ends_with(".bm")) {
    return false;
  }
  std::string middle = rest.substr(1, rest.size() - 4);
  size_t sep = middle.find("_b");
  uint32_t n = 0;
  if (sep == std::string::npos) {
    return ParseUint(middle, 0, middle.size(), &n);
  }
  return ParseUint(middle, 0, sep, &n) &&
         ParseUint(middle, sep + 2, middle.size(), &n);
}

/// Removes files of generations other than `keep_generation` and *.tmp
/// leftovers.  Failures are ignored: orphans are inert and retried at the
/// next open.  Free-standing (env + dir by value) because compaction runs
/// it from a release hook that may outlive the MutableStoredIndex handle.
void SweepStaleFiles(const Env& env, const std::filesystem::path& dir,
                     uint32_t keep_generation) {
  std::vector<std::string> names;
  if (!env.ListDir(dir, &names).ok()) return;
  for (const std::string& name : names) {
    bool stale = name.ends_with(".tmp");
    uint32_t gen = 0;
    bool is_tomb = false;
    if (!stale && ParseDeltaFileName(name, &gen, &is_tomb)) {
      stale = gen != keep_generation;
    }
    if (!stale && ParseIndexFileName(name, &gen)) {
      stale = gen != keep_generation;
    }
    if (stale) (void)env.RemoveFile(dir / name);
  }
}

}  // namespace

std::string DeltaLogFileName(uint32_t generation) {
  return "g" + std::to_string(generation) + ".delta";
}

std::string TombFileName(uint32_t generation) {
  return "g" + std::to_string(generation) + ".tomb";
}

bool ParseDeltaFileName(const std::string& name, uint32_t* generation,
                        bool* is_tomb) {
  size_t dot = name.rfind('.');
  if (dot == std::string::npos || name.empty() || name[0] != 'g') return false;
  std::string ext = name.substr(dot);
  if (ext == ".delta") {
    *is_tomb = false;
  } else if (ext == ".tomb") {
    *is_tomb = true;
  } else {
    return false;
  }
  return ParseUint(name, 1, dot, generation);
}

std::vector<uint8_t> EncodeDeltaLogHeader(uint32_t generation) {
  std::vector<uint8_t> out;
  out.reserve(kDeltaLogHeaderSize);
  out.insert(out.end(), kDeltaMagic, kDeltaMagic + 6);
  Put16(&out, kDeltaLogVersion);
  Put32(&out, generation);
  Put32(&out, Crc32c(out.data(), out.size()));
  BIX_CHECK(out.size() == kDeltaLogHeaderSize);
  return out;
}

std::vector<uint8_t> EncodeDeltaRecord(std::span<const uint32_t> values) {
  std::vector<uint8_t> payload;
  payload.reserve(5 + 4 * values.size());
  payload.push_back(kRecordAppend);
  Put32(&payload, static_cast<uint32_t>(values.size()));
  for (uint32_t v : values) Put32(&payload, v);
  std::vector<uint8_t> out;
  out.reserve(8 + payload.size());
  Put32(&out, static_cast<uint32_t>(payload.size()));
  Put32(&out, Crc32c(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Status ParseDeltaLog(std::span<const uint8_t> bytes, const std::string& name,
                     std::vector<uint32_t>* values, DeltaLogInfo* info) {
  *info = DeltaLogInfo();
  values->clear();
  const size_t size = bytes.size();
  if (size < kDeltaLogHeaderSize) {
    // The header is the log's very first append, so a crash can cut it
    // short; whatever prefix landed must still look like one.  (An empty
    // file — the crash hit right after creation — trivially qualifies.)
    if (size > 0 &&
        std::memcmp(bytes.data(), kDeltaMagic, std::min<size_t>(size, 6)) !=
            0) {
      return Status::Corruption("not a delta log (bad magic): " + name);
    }
    info->torn_bytes = size;
    return Status::OK();
  }
  if (std::memcmp(bytes.data(), kDeltaMagic, 6) != 0) {
    return Status::Corruption("not a delta log (bad magic): " + name);
  }
  const uint16_t version = Get16(bytes.data() + 6);
  const uint32_t generation = Get32(bytes.data() + 8);
  const uint32_t header_crc = Get32(bytes.data() + 12);
  if (Crc32c(bytes.data(), 12) != header_crc) {
    return Status::Corruption("delta log header checksum mismatch: " + name);
  }
  if (version != kDeltaLogVersion) {
    return Status::Corruption("unsupported delta log version " +
                              std::to_string(version) + ": " + name);
  }
  info->generation = generation;
  size_t pos = kDeltaLogHeaderSize;
  while (pos < size) {
    const size_t remaining = size - pos;
    if (remaining >= 6 &&
        std::memcmp(bytes.data() + pos, kDeltaMagic, 6) == 0) {
      // A second header mid-stream means two logs were concatenated or a
      // writer restarted from scratch without truncating — framing is
      // gone, and truncating here could drop acknowledged records.
      return Status::Corruption("duplicate delta log header at offset " +
                                std::to_string(pos) + ": " + name);
    }
    if (remaining < 8) {
      info->torn_bytes = remaining;  // frame header cut mid-write
      break;
    }
    const uint32_t len = Get32(bytes.data() + pos);
    const uint32_t want_crc = Get32(bytes.data() + pos + 4);
    if (len == 0) {
      return Status::Corruption("zero-length delta record at offset " +
                                std::to_string(pos) + ": " + name);
    }
    if (len > remaining - 8) {
      info->torn_bytes = remaining;  // payload cut mid-write
      break;
    }
    const uint8_t* payload = bytes.data() + pos + 8;
    if (Crc32c(payload, len) != want_crc) {
      if (pos + 8 + len == size) {
        // Bad CRC on the record that ends exactly at EOF: the classic
        // torn tail.  Anywhere else it is rot of acknowledged data.
        info->torn_bytes = remaining;
        break;
      }
      return Status::Corruption("delta record checksum mismatch at offset " +
                                std::to_string(pos) + ": " + name);
    }
    if (len < 5) {
      return Status::Corruption("delta record too short at offset " +
                                std::to_string(pos) + ": " + name);
    }
    const uint8_t type = payload[0];
    if (type != kRecordAppend) {
      return Status::Corruption("unknown delta record type " +
                                std::to_string(type) + " at offset " +
                                std::to_string(pos) + ": " + name);
    }
    const uint32_t count = Get32(payload + 1);
    if (static_cast<uint64_t>(len) != 5 + 4ull * count) {
      return Status::Corruption("delta record size mismatch at offset " +
                                std::to_string(pos) + ": " + name);
    }
    for (uint32_t i = 0; i < count; ++i) {
      values->push_back(Get32(payload + 5 + 4 * static_cast<size_t>(i)));
    }
    pos += 8 + len;
    ++info->num_records;
  }
  info->valid_bytes = pos;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Query sources over the overlay.

/// Wraps a base-index source so the snapshot's shared ownership of that
/// StoredIndex travels with the query: a compaction that swaps the base
/// out from under an in-flight query cannot destroy the generation the
/// query is reading.  Everything else forwards 1:1, so a clean index
/// (nothing pending) keeps the exact bits, stats, and fetch paths of
/// StoredIndex::OpenQuerySource — including the compressed-domain
/// FetchWah handover.
class ForwardingQuerySource final : public QuerySource {
 public:
  ForwardingQuerySource(std::shared_ptr<const StoredIndex> owner,
                        std::unique_ptr<QuerySource> inner)
      : owner_(std::move(owner)), inner_(std::move(inner)) {}

  const Status& status() const override { return inner_->status(); }
  bool degraded() const override { return inner_->degraded(); }
  const BaseSequence& base() const override { return inner_->base(); }
  Encoding encoding() const override { return inner_->encoding(); }
  size_t num_records() const override { return inner_->num_records(); }
  uint32_t cardinality() const override { return inner_->cardinality(); }
  const Bitvector& non_null() const override { return inner_->non_null(); }
  Bitvector Fetch(int component, uint32_t slot,
                  EvalStats* stats) const override {
    return inner_->Fetch(component, slot, stats);
  }
  const Bitvector* FetchView(int component, uint32_t slot,
                             EvalStats* stats) const override {
    return inner_->FetchView(component, slot, stats);
  }
  const WahBitvector* FetchWah(int component, uint32_t slot,
                               EvalStats* stats) const override {
    return inner_->FetchWah(component, slot, stats);
  }
  const WahBitvector* NonNullWah() const override {
    return inner_->NonNullWah();
  }

 private:
  std::shared_ptr<const StoredIndex> owner_;
  std::unique_ptr<QuerySource> inner_;
};

/// The delta-merging source: base bitmap AND-NOT tombstones, OR delta
/// bits.  Bit-identical to a from-scratch rebuild over the logical column
/// because a deleted row reads as NULL, and NULL rows contribute zero
/// bits to every stored bitmap under both encodings.
///
/// Stats parity with that rebuild: each Fetch charges exactly one bitmap
/// scan (the inner fetch's), tombstone masking and delta merging charge
/// nothing — tombstoned rows cost no extra scans, and delta reads are
/// attributed to the same fetch as the base read they ride on.
/// bytes_read counts the base's stored bytes (the delta rows live in
/// memory and move no disk bytes).
class DeltaQuerySource final : public QuerySource {
 public:
  DeltaQuerySource(
      std::shared_ptr<const MutableStoredIndex::DeltaState> state,
      EvalStats* stats, double* decompress_seconds)
      : state_(std::move(state)),
        inner_(state_->base->OpenQuerySource(stats, decompress_seconds)) {
    const size_t base_n = state_->base->num_records();
    non_null_ = inner_->non_null();
    non_null_.Resize(state_->total());
    if (state_->delta_index != nullptr) {
      state_->delta_index->non_null().ForEachSetBit(
          [&](size_t r) { non_null_.Set(base_n + r); });
    }
    non_null_.AndNotWith(state_->tombstones);
  }

  const Status& status() const override { return inner_->status(); }
  bool degraded() const override { return inner_->degraded(); }
  const BaseSequence& base() const override { return state_->base->base(); }
  Encoding encoding() const override { return state_->base->encoding(); }
  size_t num_records() const override { return state_->total(); }
  uint32_t cardinality() const override {
    return state_->base->cardinality();
  }
  const Bitvector& non_null() const override { return non_null_; }

  Bitvector Fetch(int component, uint32_t slot,
                  EvalStats* stats) const override {
    Bitvector out = inner_->Fetch(component, slot, stats);
    out.Resize(state_->total());
    if (state_->delta_index != nullptr) {
      const size_t base_n = state_->base->num_records();
      // nullptr stats: the delta merge rides on the base fetch's scan.
      const Bitvector* delta =
          state_->delta_index->FetchView(component, slot, nullptr);
      BIX_CHECK(delta != nullptr);
      delta->ForEachSetBit([&](size_t r) { out.Set(base_n + r); });
    }
    out.AndNotWith(state_->tombstones);
    return out;
  }

  // FetchView/FetchWah/NonNullWah: inherited nullptr defaults.  A pending
  // overlay has no zero-copy or compressed-domain representation; engines
  // fall back to Fetch(), which keeps counts identical.

 private:
  std::shared_ptr<const MutableStoredIndex::DeltaState> state_;
  std::unique_ptr<QuerySource> inner_;
  Bitvector non_null_;
};

namespace {

/// Fully materialized overlay used by compaction: every stored bitmap is
/// fetched (and its read status checked) *before* any generation-(G+1)
/// file is written, so an unreadable base can never commit a manifest
/// over zeroed bitmaps.
class MaterializedSource final : public BitmapSource {
 public:
  Status Fill(const DeltaQuerySource& overlay) {
    base_ = overlay.base();
    encoding_ = overlay.encoding();
    num_records_ = overlay.num_records();
    cardinality_ = overlay.cardinality();
    non_null_ = overlay.non_null();
    stored_.resize(static_cast<size_t>(base_.num_components()));
    for (int c = 0; c < base_.num_components(); ++c) {
      const uint32_t slots = NumStoredBitmaps(encoding_, base_.base(c));
      for (uint32_t j = 0; j < slots; ++j) {
        stored_[static_cast<size_t>(c)].push_back(
            overlay.Fetch(c, j, nullptr));
      }
    }
    return overlay.status();
  }

  const BaseSequence& base() const override { return base_; }
  Encoding encoding() const override { return encoding_; }
  size_t num_records() const override { return num_records_; }
  uint32_t cardinality() const override { return cardinality_; }
  const Bitvector& non_null() const override { return non_null_; }
  Bitvector Fetch(int component, uint32_t slot,
                  EvalStats* stats) const override {
    const Bitvector* view = FetchView(component, slot, stats);
    return *view;
  }
  const Bitvector* FetchView(int component, uint32_t slot,
                             EvalStats* stats) const override {
    if (stats != nullptr) ++stats->bitmap_scans;
    return &stored_[static_cast<size_t>(component)][slot];
  }

 private:
  BaseSequence base_;
  Encoding encoding_ = Encoding::kRange;
  size_t num_records_ = 0;
  uint32_t cardinality_ = 0;
  Bitvector non_null_;
  std::vector<std::vector<Bitvector>> stored_;
};

}  // namespace

// ---------------------------------------------------------------------------
// MutableStoredIndex.

MutableStoredIndex::GenerationHolder::~GenerationHolder() {
  if (on_last_release) on_last_release();
}

std::shared_ptr<const MutableStoredIndex::DeltaState>
MutableStoredIndex::MakeState(std::shared_ptr<const StoredIndex> base,
                              std::vector<uint32_t> delta_values,
                              Bitvector tombstones) {
  auto state = std::make_shared<DeltaState>();
  state->base = std::move(base);
  state->tombstones = std::move(tombstones);
  state->num_tombstones = state->tombstones.Count();
  if (!delta_values.empty()) {
    state->delta_index = std::make_shared<const BitmapIndex>(
        BitmapIndex::Build(delta_values, state->base->cardinality(),
                           state->base->base(), state->base->encoding()));
  }
  state->delta_values = std::move(delta_values);
  return state;
}

Status MutableStoredIndex::Open(const std::filesystem::path& dir,
                                std::unique_ptr<MutableStoredIndex>* out,
                                const StoredIndexOptions& options) {
  auto m = std::unique_ptr<MutableStoredIndex>(new MutableStoredIndex());
  m->env_ = options.env != nullptr ? options.env : Env::Default();
  m->options_ = options;
  m->dir_ = dir;

  std::unique_ptr<StoredIndex> base;
  Status s = StoredIndex::Open(dir, &base, options);
  if (!s.ok()) return s;
  auto holder = std::make_shared<GenerationHolder>();
  holder->index = std::move(base);
  std::shared_ptr<const StoredIndex> shared_base(holder, holder->index.get());
  m->base_holder_ = std::move(holder);
  const uint32_t generation = shared_base->generation();

  // Recovery step 1: sweep orphans of whichever generation lost the race
  // with a crash (a compaction that died before its manifest rename, or
  // after it but before its cleanup finished).
  m->CollectGarbage(generation);

  // Recovery step 2: replay the append log, repairing a torn tail.
  std::vector<uint32_t> delta;
  const std::filesystem::path log_path = dir / DeltaLogFileName(generation);
  if (m->env_->FileExists(log_path)) {
    std::vector<uint8_t> bytes;
    s = m->env_->ReadFileBytes(log_path, &bytes);
    if (!s.ok()) return s;
    DeltaLogInfo info;
    s = ParseDeltaLog(bytes, DeltaLogFileName(generation), &delta, &info);
    if (!s.ok()) return s;
    if (info.valid_bytes >= kDeltaLogHeaderSize &&
        info.generation != generation) {
      return Status::Corruption(
          "delta log generation " + std::to_string(info.generation) +
          " does not match index generation " + std::to_string(generation));
    }
    if (info.valid_bytes < kDeltaLogHeaderSize) {
      // Torn (or never-completed) header: nothing durable inside.  Remove
      // the file; the next append recreates it from scratch.
      s = m->env_->RemoveFile(log_path);
      if (!s.ok()) return s;
      if (!bytes.empty()) RecoveriesCounter().Increment();
    } else if (info.torn_bytes > 0) {
      // Truncate the unacknowledged tail (atomically: a crash inside the
      // repair must not make things worse).
      s = m->env_->WriteFileAtomic(
          log_path, std::span<const uint8_t>(bytes.data(),
                                             static_cast<size_t>(
                                                 info.valid_bytes)));
      if (!s.ok()) return s;
      RecoveriesCounter().Increment();
    }
  }

  // Recovery step 3: load tombstones (atomic blob: always all-old/all-new).
  Bitvector tombstones;
  const std::filesystem::path tomb_path = dir / TombFileName(generation);
  if (m->env_->FileExists(tomb_path)) {
    format::CheckedBlob blob;
    s = format::ReadBlobFile(*m->env_, tomb_path, &blob);
    if (!s.ok()) return s;
    if (blob.payload.size() < (blob.raw_size + 7) / 8) {
      return Status::Corruption("tombstone bitmap shorter than its bit count");
    }
    tombstones = Bitvector::FromBytes(
        blob.payload, static_cast<size_t>(blob.raw_size));
  }
  // The tombstone blob may predate the latest appends (rows appended after
  // the last delete); size it to the current total.  It can never name
  // rows beyond the total: deletes are written after the appends they
  // cover were synced, and rows are never physically removed.
  const size_t total = shared_base->num_records() + delta.size();
  if (tombstones.size() > total) {
    return Status::Corruption(
        "tombstone bitmap covers " + std::to_string(tombstones.size()) +
        " rows but the index has " + std::to_string(total));
  }
  tombstones.Resize(total);

  m->state_ = MakeState(std::move(shared_base), std::move(delta),
                        std::move(tombstones));
  *out = std::move(m);
  return Status::OK();
}

void MutableStoredIndex::CollectGarbage(uint32_t keep_generation) const {
  SweepStaleFiles(*env_, dir_, keep_generation);
}

std::shared_ptr<const MutableStoredIndex::DeltaState>
MutableStoredIndex::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::shared_ptr<const StoredIndex> MutableStoredIndex::base() const {
  return state()->base;
}

uint32_t MutableStoredIndex::generation() const {
  return state()->base->generation();
}

size_t MutableStoredIndex::num_records() const { return state()->total(); }

size_t MutableStoredIndex::num_delta_rows() const {
  return state()->delta_values.size();
}

size_t MutableStoredIndex::num_tombstones() const {
  return state()->num_tombstones;
}

bool MutableStoredIndex::has_pending() const {
  return state()->has_pending();
}

Status MutableStoredIndex::EnsureLogOpen() {
  if (log_ != nullptr) return Status::OK();
  const uint32_t generation = state_->base->generation();
  const std::filesystem::path path = dir_ / DeltaLogFileName(generation);
  const bool fresh = !env_->FileExists(path);
  Status s = env_->NewAppendableFile(path, &log_);
  if (!s.ok()) return s;
  if (fresh) {
    std::vector<uint8_t> header = EncodeDeltaLogHeader(generation);
    s = log_->Append(header);
    if (!s.ok()) {
      log_.reset();
      return s;
    }
    WalBytesCounter().Increment(static_cast<int64_t>(header.size()));
  }
  return Status::OK();
}

Status MutableStoredIndex::Append(std::span<const uint32_t> values) {
  if (values.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  const std::shared_ptr<const DeltaState> cur = state_;
  for (uint32_t v : values) {
    if (v != kNullValue && v >= cur->base->cardinality()) {
      return Status::InvalidArgument(
          "append value rank " + std::to_string(v) +
          " outside domain [0, " +
          std::to_string(cur->base->cardinality()) + ")");
    }
  }
  // One record, one fsync: the batch becomes durable all at once, and a
  // crash mid-write leaves a torn tail the next open truncates away.
  std::vector<uint8_t> record = EncodeDeltaRecord(values);
  Status s = EnsureLogOpen();
  if (s.ok()) s = log_->Append(record);
  if (s.ok()) s = log_->Sync();
  if (!s.ok()) {
    // The log's tail is now indeterminate; appending more would bury the
    // torn bytes mid-stream where recovery must call them rot.  Poison
    // this handle — reads continue, mutations need a reopen (which runs
    // recovery and truncates the tail).
    poisoned_ = s;
    log_.reset();
    return s;
  }
  AppendsCounter().Increment();
  WalBytesCounter().Increment(static_cast<int64_t>(record.size()));

  std::vector<uint32_t> delta = cur->delta_values;
  delta.insert(delta.end(), values.begin(), values.end());
  Bitvector tombstones = cur->tombstones;
  tombstones.Resize(cur->total() + values.size());
  state_ = MakeState(cur->base, std::move(delta), std::move(tombstones));
  return Status::OK();
}

Status MutableStoredIndex::Delete(std::span<const uint32_t> rows) {
  if (rows.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  const std::shared_ptr<const DeltaState> cur = state_;
  const size_t total = cur->total();
  for (uint32_t r : rows) {
    if (r >= total) {
      return Status::InvalidArgument("delete row " + std::to_string(r) +
                                     " outside [0, " + std::to_string(total) +
                                     ")");
    }
  }
  // Tombstones live in physical (bitmap) space; the caller's row ids are
  // logical.  Over a sorted base the two differ for base rows (appended
  // tail rows are identity either way): mark the doomed base rows
  // logically, then one pass over perm[physical] = logical finds their
  // physical positions — no inverse permutation is built.
  const std::vector<uint32_t>& perm = cur->base->row_order();
  Bitvector tombstones = cur->tombstones;
  Bitvector doomed = Bitvector::Zeros(perm.size());
  for (uint32_t r : rows) {
    if (r < perm.size()) {
      doomed.Set(r);
    } else {
      tombstones.Set(r);
    }
  }
  for (size_t p = 0; p < perm.size(); ++p) {
    if (doomed.Get(perm[p])) tombstones.Set(p);
  }
  // Whole-bitmap atomic replace: after a crash the tombstone file is the
  // pre- or post-delete bitmap, never a mix.
  std::vector<uint8_t> payload = tombstones.ToBytes();
  std::vector<uint8_t> image =
      format::EncodeBlobFile(payload, /*raw_size=*/total);
  Status s = env_->WriteFileAtomic(
      dir_ / TombFileName(cur->base->generation()), image);
  if (!s.ok()) {
    poisoned_ = s;
    return s;
  }
  DeletesCounter().Increment();
  state_ = MakeState(cur->base, cur->delta_values, std::move(tombstones));
  return Status::OK();
}

Status MutableStoredIndex::Compact(bool resort, RowOrder resort_order) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  const std::shared_ptr<const DeltaState> cur = state_;
  if (!cur->has_pending() && !resort) return Status::OK();
  const uint32_t next_generation = cur->base->generation() + 1;

  // Materialize the overlay up front: all reads happen (and their status
  // is checked) before the first new-generation byte hits disk.
  MaterializedSource folded;
  {
    DeltaQuerySource overlay(cur, nullptr, nullptr);
    Status s = folded.Fill(overlay);
    if (!s.ok()) {
      poisoned_ = s;
      return s;
    }
  }

  // The base's permutation, identity-extended over the appended tail:
  // physical p held logical ext(p) in the overlay just folded.
  const std::vector<uint32_t>& base_perm = cur->base->row_order();
  auto ext = [&](size_t p) -> uint32_t {
    return p < base_perm.size() ? base_perm[p]
                                : static_cast<uint32_t>(p);
  };

  Status s;
  std::unique_ptr<StoredIndex> rewritten;
  if (resort) {
    // Re-sort path: recover the logical column from the folded bitmaps
    // (the directory has no base relation to consult — the bitmaps are a
    // lossless encoding of it), recompute the permutation, and rebuild.
    std::vector<uint32_t> physical_values;
    s = DecodeIndexValues(folded, &physical_values);
    if (!s.ok()) {
      poisoned_ = s;
      return s;
    }
    // The column now carries everything the folded bitmaps held: release
    // them before the re-sorted build, so the two bitmap sets are never
    // resident together.
    folded = MaterializedSource();
    std::vector<uint32_t> logical_values(physical_values.size());
    for (size_t p = 0; p < physical_values.size(); ++p) {
      logical_values[ext(p)] = physical_values[p];
    }
    physical_values = std::vector<uint32_t>();
    RowOrder kind = resort_order != RowOrder::kNone ? resort_order
                    : cur->base->row_order_kind() != RowOrder::kNone
                        ? cur->base->row_order_kind()
                        : RowOrder::kLex;
    std::vector<uint32_t> next_perm = ComputeRowOrder(
        logical_values, cur->base->cardinality(), cur->base->base(), kind);
    BitmapIndex sorted = BitmapIndex::Build(
        ApplyPermutation(logical_values, next_perm),
        cur->base->cardinality(), cur->base->base(), cur->base->encoding());
    s = StoredIndex::WriteFromSource(sorted, dir_, cur->base->scheme(),
                                     cur->base->codec(), &rewritten, options_,
                                     next_generation, next_perm, kind);
  } else if (!base_perm.empty()) {
    // Plain compaction of a sorted base: the folded bitmaps keep their
    // physical order, so the permutation carries forward, extended by the
    // identity over the tail rows.
    std::vector<uint32_t> next_perm(folded.num_records());
    for (size_t p = 0; p < next_perm.size(); ++p) next_perm[p] = ext(p);
    s = StoredIndex::WriteFromSource(
        folded, dir_, cur->base->scheme(), cur->base->codec(), &rewritten,
        options_, next_generation, next_perm, cur->base->row_order_kind());
  } else {
    s = StoredIndex::WriteFromSource(
        folded, dir_, cur->base->scheme(), cur->base->codec(), &rewritten,
        options_, next_generation);
  }
  if (!s.ok()) {
    // Nothing committed: the old manifest still governs, and the partial
    // generation-(G+1) files are inert orphans the next open collects.
    poisoned_ = s;
    return s;
  }

  // Committed (the manifest rename inside WriteFromSource is the point of
  // no return).  Swap the snapshot; removal of the old generation's files
  // waits for its last reader.
  log_.reset();
  auto next_holder = std::make_shared<GenerationHolder>();
  next_holder->index = std::move(rewritten);
  std::shared_ptr<const StoredIndex> next_base(next_holder,
                                               next_holder->index.get());
  // In-flight queries pinning a pre-compaction snapshot still fetch the
  // old base's blobs lazily by path, so the old files must outlive every
  // such snapshot: arm the superseded holder to sweep them on its last
  // release.  With no readers in flight that is `cur` dropping at the end
  // of this function; either way sweep failures leave inert orphans the
  // next open collects.
  base_holder_->on_last_release =
      [env = env_, dir = dir_, next_generation] {
        SweepStaleFiles(*env, dir, next_generation);
      };
  base_holder_ = std::move(next_holder);
  const size_t n = next_base->num_records();
  state_ = MakeState(std::move(next_base), {}, Bitvector::Zeros(n));
  CompactionsCounter().Increment();
  return Status::OK();
}

std::unique_ptr<QuerySource> MutableStoredIndex::MakeQuerySource(
    std::shared_ptr<const DeltaState> snapshot, EvalStats* stats,
    double* decompress_seconds) {
  if (!snapshot->has_pending()) {
    std::unique_ptr<QuerySource> inner =
        snapshot->base->OpenQuerySource(stats, decompress_seconds);
    return std::make_unique<ForwardingQuerySource>(snapshot->base,
                                                   std::move(inner));
  }
  return std::make_unique<DeltaQuerySource>(std::move(snapshot), stats,
                                            decompress_seconds);
}

std::unique_ptr<QuerySource> MutableStoredIndex::OpenQuerySource(
    EvalStats* stats, double* decompress_seconds) const {
  return MakeQuerySource(state(), stats, decompress_seconds);
}

Bitvector MutableStoredIndex::Evaluate(EvalAlgorithm algorithm, CompareOp op,
                                       int64_t v, EvalStats* stats,
                                       double* decompress_seconds,
                                       Status* status,
                                       const ExecOptions* exec) const {
  EvalStats local;
  EvalStats* s = stats != nullptr ? stats : &local;
  // One snapshot feeds both the source and the row-order remap below; a
  // compaction landing mid-query cannot pair new bitmaps with an old
  // permutation (or vice versa).
  const std::shared_ptr<const DeltaState> snapshot = state();
  std::unique_ptr<QuerySource> source =
      MakeQuerySource(snapshot, s, decompress_seconds);
  Bitvector result;
  if (source->status().ok()) {
    result = EvaluatePredicate(*source, algorithm, op, v,
                               exec != nullptr ? *exec : ExecOptions{}, s);
    const std::vector<uint32_t>& perm = snapshot->base->row_order();
    if (!perm.empty()) result = RemapToLogical(result, perm);
  }
  if (status != nullptr) {
    *status = source->status();
    if (!status->ok()) return Bitvector();
    return result;
  }
  BIX_CHECK_MSG(source->status().ok(), "mutable stored index read failed");
  return result;
}

}  // namespace bix
