// End-to-end, layer-by-layer benchmark over TPC-D lineitem-shaped columns.
//
// One process runs one workload (see README.md in this directory):
//   serve_zipf      warm multi-tenant serving through QueryService
//   cold_sorted     StoredIndex::Evaluate over Gray-sorted WAH indexes
//   mutate_mixed    MutableStoredIndex queries beside appends, deletes and
//                   compactions
//   q6_conjunction  SelectionPlanner::Choose + Execute on q6 conjunctions
//
// Inputs come from the workload/ generators seeded by --seed.  Every
// foundset is checked against ScanEvaluate over the logical column outside
// the timed region; a mismatch exits with status 3 before any result is
// printed.  With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 the run alternates untraced and traced slices,
// records the benchmark's own spans around each public call it makes, and
// reports the per-layer metrics (plus a Chrome trace at --trace-out).
//
// Usage:
//   bixbench --workload NAME --seed N --seconds S --trace 0|1
//            --work-dir DIR [--rows R] [--trace-out FILE]
//            [--git-sha SHA] [--src-digest HEX]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "baseline/scan.h"
#include "bench_lib.h"
#include "bitmap/wah_bitvector.h"
#include "compress/codec.h"
#include "core/advisor.h"
#include "core/bitmap_index.h"
#include "core/eval.h"
#include "core/row_order.h"
#include "exec/segmented_eval.h"
#include "exec/wah_engine.h"
#include "obs/metrics.h"
#include "plan/selection_plan.h"
#include "plan/table.h"
#include "serve/service.h"
#include "storage/delta.h"
#include "storage/stored_index.h"
#include "workload/generators.h"
#include "workload/queries.h"
#include "workload/tpcd.h"

namespace fs = std::filesystem;
using namespace bix;
using bixbench::LatencySummary;
using bixbench::Median;
using bixbench::SpanRecorder;
using bixbench::Summarize;

namespace {

// ---------------------------------------------------------------------------
// Options, metric tables, run-wide state.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t rows = 1000000;
  fs::path work_dir;
  fs::path trace_out;
  std::string git_sha = "unavailable";
  std::string src_digest = "unavailable";
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py refuses a mismatch).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"query_qps", "1/s"},
    {"query_p50_us", "us"},     {"query_p99_us", "us"},
    {"scans_per_query", "count"}, {"space_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve.hit_rate", "ratio"},
    {"serve.misses_per_query", "count"},
    {"serve.run_batch_us", "us"},
    {"serve.overhead_us", "us"},
    {"serve.shed", "count"},
    {"serve.deadline_misses", "count"},
    {"storage.write_ms", "ms"},
    {"storage.open_ms", "ms"},
    {"storage.fetch_us", "us"},
    {"storage.fetches_per_query", "count"},
    {"storage.bytes_read_per_query", "B"},
    {"storage.append_us", "us"},
    {"storage.delete_us", "us"},
    {"storage.wal_bytes_per_row", "B"},
    {"storage.compact_ms", "ms"},
    {"storage.overlay_eval_us", "us"},
    {"storage.compacted_eval_us", "us"},
    {"storage.retries", "count"},
    {"storage.checksum_failures", "count"},
    {"storage.recoveries", "count"},
    {"compress.decode_us", "us"},
    {"compress.ratio", "ratio"},
    {"exec.eval_us", "us"},
    {"exec.compressed_op_frac", "ratio"},
    {"exec.dense_fallbacks", "count"},
    {"exec.heap_events", "count"},
    {"exec.calibrated_ratio", "ratio"},
    {"bitmap.and_of_many_us", "us"},
    {"core.build_ms", "ms"},
    {"core.row_order_ms", "ms"},
    {"core.remap_us", "us"},
    {"core.ops_per_query", "count"},
    {"plan.choose_us", "us"},
    {"plan.execute_us", "us"},
    {"plan.p3_frac", "ratio"},
    {"plan.bytes_drift", "ratio"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.unattributed_pct", "%"},
    {"write_p50_us", "us"},
    {"write_p99_us", "us"},
    {"compact_ms", "ms"},
    {"error_rate", "ratio"},
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(int code, const std::string& message) {
  std::fprintf(stderr, "bixbench: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(code);
}

// Metrics of the selected set; every name starts at 0, which in the
// per-layer set means "this layer does not run on this workload" (README).
class Report {
 public:
  explicit Report(std::span<const MetricDef> defs) : defs_(defs) {
    for (const MetricDef& d : defs_) values_[d.name] = 0;
  }
  void Set(const std::string& name, double value) {
    auto it = values_.find(name);
    if (it == values_.end()) Die(2, "metric " + name + " is not in this set");
    it->second = value;
  }
  std::string ToJson() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    bool first = true;
    for (const MetricDef& d : defs_) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << d.name << "\": {\"value\": " << values_.at(d.name)
         << ", \"unit\": \"" << d.unit << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  std::span<const MetricDef> defs_;
  std::map<std::string, double> values_;
};

// The benchmark's own spans.  Off (recorder null) in untraced slices.
struct Tracing {
  SpanRecorder* rec = nullptr;
  uint64_t next_query = 1;
};

class Scope {
 public:
  Scope(Tracing& t, const char* name, const char* layer,
        uint64_t query_id = 0)
      : rec_(t.rec) {
    if (rec_ != nullptr) rec_->Begin(name, layer, query_id, NowNs());
  }
  ~Scope() {
    if (rec_ != nullptr) rec_->End(NowNs());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
};

// Queries per chunk of the closed-loop figures (bench_lib.h
// SummarizeChunks), unless a workload ends its chunks itself.  Every query
// pool and trace length divides the chunk or is a multiple of it, so
// chunks replay whole pool cycles (or equal slices of a stationary trace)
// and differ only by machine noise.
constexpr size_t kChunkQueries = 1024;

// Everything a run counts.  Timings are closed-loop busy time: the oracle
// and probes run outside it.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t deadline_misses = 0;
  int64_t ok_queries = 0;
  int64_t timed_ns = 0;
  // Chunks end every chunk_queries OK queries; 0 leaves it to the
  // workload's EndChunk calls.
  size_t chunk_queries = kChunkQueries;
  std::vector<double> query_us;
  std::vector<bixbench::ChunkEnd> chunk_ends;
  std::vector<double> write_us;
  std::vector<double> compact_ms;
  int64_t scans = 0;
  int64_t ops = 0;
  int64_t bytes_read = 0;

  // Call after adding the query's time to timed_ns.
  void AddQuery(double us) {
    query_us.push_back(us);
    if (chunk_queries > 0 && query_us.size() % chunk_queries == 0) EndChunk();
  }
  void EndChunk() { chunk_ends.push_back({query_us.size(), timed_ns}); }
  double qps() const {
    return timed_ns > 0 ? static_cast<double>(ok_queries) * 1e9 /
                              static_cast<double>(timed_ns)
                        : 0;
  }
};

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

// Registry counters read as before/after deltas around the measured phase,
// minus what the traced run's probes add (Exclude), so the counts belong to
// the workload's own calls.
class CounterDeltas {
 public:
  void Begin() {
    for (const char* n : kNames) start_[n] = CounterValue(n);
  }
  template <typename Fn>
  void Exclude(Fn&& probe) {
    std::map<std::string, int64_t> before;
    for (const char* n : kNames) before[n] = CounterValue(n);
    probe();
    for (const char* n : kNames) excluded_[n] += CounterValue(n) - before[n];
  }
  double Delta(const char* n) const {
    auto ex = excluded_.find(n);
    return static_cast<double>(CounterValue(n) - start_.at(n) -
                               (ex == excluded_.end() ? 0 : ex->second));
  }

 private:
  static constexpr const char* kNames[] = {
      "serve.shared_fetch_hits", "serve.shared_fetch_misses",
      "storage.retries",         "storage.checksum_failures",
      "storage.recoveries",      "storage.wal_bytes",
      "wah_engine.compressed_ops", "wah_engine.plain_ops",
      "wah_engine.dense_fallbacks", "wah_engine.heap_events",
  };
  std::map<std::string, int64_t> start_;
  std::map<std::string, int64_t> excluded_;
};

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Inputs: TPC-D lineitem-shaped columns.

struct Column {
  std::string name;
  uint32_t cardinality = 0;
  std::vector<uint32_t> values;  // logical row order
};

inline constexpr uint32_t kDiscountCardinality = 11;  // 0.00 .. 0.10
inline constexpr uint32_t kTaxCardinality = 9;        // 0.00 .. 0.08
inline constexpr uint32_t kShipdateCardinality = 2526;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// quantity, discount, tax, shipdate — the order serve_zipf's trace ranks
// them in (column 0 hottest).
std::vector<Column> MakeLineitem(size_t rows, uint64_t seed) {
  std::vector<Column> cols;
  cols.push_back({"l_quantity", kQuantityCardinality,
                  MakeLineitemQuantity(rows, SubSeed(seed, 1)).ranks});
  cols.push_back({"l_discount", kDiscountCardinality,
                  GenerateUniform(rows, kDiscountCardinality, SubSeed(seed, 2))});
  cols.push_back({"l_tax", kTaxCardinality,
                  GenerateUniform(rows, kTaxCardinality, SubSeed(seed, 3))});
  cols.push_back({"l_shipdate", kShipdateCardinality,
                  GenerateUniform(rows, kShipdateCardinality,
                                  SubSeed(seed, 4))});
  return cols;
}

// ---------------------------------------------------------------------------
// Scan oracle: every foundset is compared with ScanEvaluate over the
// logical column.  Results of immutable columns are cached by fingerprint.

class Oracle {
 public:
  /// Compares `got` with the foundset `expected()` computes.  A nonzero
  /// `key` names an answer that never changes: its fingerprint is computed
  /// once and reused.
  template <typename Expected>
  void Check(uint64_t key, Expected&& expected, const Bitvector& got,
             const std::string& what) {
    ++checks_;
    auto it = key != 0 ? cache_.find(key) : cache_.end();
    uint64_t fingerprint = 0;
    if (it != cache_.end()) {
      fingerprint = it->second;
    } else {
      fingerprint = bixbench::Fingerprint(expected());
      if (key != 0) cache_.emplace(key, fingerprint);
    }
    if (bixbench::Fingerprint(got) != fingerprint) {
      Die(3, "oracle mismatch on " + what);
    }
  }
  /// `col op v` against ScanEvaluate over `col`'s current values.
  void CheckColumn(const Column& col, size_t col_index, CompareOp op,
                   int64_t v, const Bitvector& got, bool immutable) {
    const uint64_t key =
        immutable ? (uint64_t{1} << 63) | (col_index << 40) |
                        (static_cast<uint64_t>(op) << 32) |
                        static_cast<uint32_t>(v)
                  : 0;
    Check(key, [&] { return ScanEvaluate(col.values, op, v); }, got,
          col.name + " " + std::string(ToString(op)) + " " +
              std::to_string(v));
  }
  int64_t checks() const { return checks_; }

 private:
  std::unordered_map<uint64_t, uint64_t> cache_;
  int64_t checks_ = 0;
};

// ---------------------------------------------------------------------------
// Recording BitmapSource: wraps a per-query QuerySource, times every fetch
// that returns an operand as a storage.fetch span, with the decode time the
// source reports (its decompress_seconds accumulator) as a compress.decode
// child at the end of the fetch.

class RecordingSource final : public BitmapSource {
 public:
  RecordingSource(const BitmapSource& inner, SpanRecorder& rec,
                  const double* decompress_seconds)
      : inner_(inner), rec_(rec), decompress_seconds_(decompress_seconds) {}

  const BaseSequence& base() const override { return inner_.base(); }
  Encoding encoding() const override { return inner_.encoding(); }
  size_t num_records() const override { return inner_.num_records(); }
  uint32_t cardinality() const override { return inner_.cardinality(); }
  const Bitvector& non_null() const override { return inner_.non_null(); }
  const WahBitvector* NonNullWah() const override {
    return inner_.NonNullWah();
  }

  Bitvector Fetch(int component, uint32_t slot,
                  EvalStats* stats) const override {
    const int64_t t0 = NowNs();
    const double d0 = *decompress_seconds_;
    Bitvector out = inner_.Fetch(component, slot, stats);
    Record(t0, d0);
    return out;
  }
  const Bitvector* FetchView(int component, uint32_t slot,
                             EvalStats* stats) const override {
    const int64_t t0 = NowNs();
    const double d0 = *decompress_seconds_;
    const Bitvector* out = inner_.FetchView(component, slot, stats);
    if (out != nullptr) Record(t0, d0);
    return out;
  }
  const WahBitvector* FetchWah(int component, uint32_t slot,
                               EvalStats* stats) const override {
    const int64_t t0 = NowNs();
    const double d0 = *decompress_seconds_;
    const WahBitvector* out = inner_.FetchWah(component, slot, stats);
    if (out != nullptr) Record(t0, d0);
    return out;
  }

  int64_t fetches() const { return fetches_; }

 private:
  void Record(int64_t t0, double d0) const {
    const int64_t t1 = NowNs();
    const int64_t decode_ns = std::min<int64_t>(
        t1 - t0, static_cast<int64_t>((*decompress_seconds_ - d0) * 1e9));
    rec_.Begin("storage.fetch", "storage", 0, t0);
    if (decode_ns > 0) {
      rec_.AddChild("compress.decode", "compress", t1 - decode_ns, t1);
    }
    rec_.End(t1);
    ++fetches_;
  }

  const BitmapSource& inner_;
  SpanRecorder& rec_;
  const double* decompress_seconds_;
  mutable int64_t fetches_ = 0;
};

// One stored query decomposed into its public calls — the same sequence
// StoredIndex::Evaluate and MutableStoredIndex::Evaluate run internally
// (open a query source, evaluate, remap a sorted result to logical ids) —
// each wrapped in a span.  Returns the logical foundset; `*status` carries
// the source's status.
template <typename Index>
Bitvector TracedStoredEval(const Index& index,
                           const std::vector<uint32_t>& row_order,
                           CompareOp op, int64_t v, const ExecOptions* exec,
                           SpanRecorder& rec, EvalStats* stats,
                           int64_t* fetches, Status* status) {
  double decompress = 0;
  std::unique_ptr<QuerySource> source;
  {
    rec.Begin("storage.open_source", "storage", 0, NowNs());
    source = index.OpenQuerySource(stats, &decompress);
    rec.End(NowNs());
  }
  *status = source->status();
  if (!status->ok()) return Bitvector();
  RecordingSource recording(*source, rec, &decompress);
  Bitvector result;
  rec.Begin("exec.evaluate", "exec", 0, NowNs());
  result = exec != nullptr ? EvaluatePredicate(recording, EvalAlgorithm::kAuto,
                                               op, v, *exec, stats)
                           : EvaluatePredicate(recording, EvalAlgorithm::kAuto,
                                               op, v, stats);
  rec.End(NowNs());
  *fetches += recording.fetches();
  *status = source->status();
  if (!status->ok()) return Bitvector();
  if (!row_order.empty()) {
    rec.Begin("core.remap", "core", 0, NowNs());
    result = RemapToLogical(result, row_order);
    rec.End(NowNs());
  }
  return result;
}

// ---------------------------------------------------------------------------
// Setup helpers.  Each repetition builds, writes and reopens from scratch
// into its own directory; setup_s is the median repetition.

// Times one phase of a setup repetition as a span under the setup root.
template <typename Fn>
void Phase(Tracing& t, const char* name, const char* layer, Fn&& fn) {
  Scope scope(t, name, layer);
  fn();
}

const Codec& CodecNamed(const char* name) {
  const Codec* codec = CodecByName(name);
  if (codec == nullptr) Die(2, std::string("unknown codec ") + name);
  return *codec;
}

void CheckOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(2, what + ": " + s.ToString());
}

// Builds a BS index of `physical` (values in build order) at `dir` and,
// with `reopen`, opens it again as a StoredIndex.  The in-memory index is
// handed to `keep_in_memory` when non-null.
std::unique_ptr<StoredIndex> BuildStored(
    Tracing& t, const Column& col, std::span<const uint32_t> physical,
    Encoding encoding, const char* codec, const fs::path& dir,
    std::span<const uint32_t> perm, RowOrder order, bool reopen,
    std::unique_ptr<BitmapIndex>* keep_in_memory) {
  std::optional<BitmapIndex> index;
  Phase(t, "core.build", "core", [&] {
    index.emplace(BitmapIndex::Build(physical, col.cardinality,
                                     KneeBase(col.cardinality), encoding));
  });
  Phase(t, "storage.write", "storage", [&] {
    std::unique_ptr<StoredIndex> written;
    CheckOk(StoredIndex::Write(*index, dir, StorageScheme::kBitmapLevel,
                               CodecNamed(codec), &written, {}, perm, order),
            "write " + col.name);
  });
  std::unique_ptr<StoredIndex> opened;
  if (reopen) {
    Phase(t, "storage.open", "storage", [&] {
      CheckOk(StoredIndex::Open(dir, &opened), "open " + col.name);
    });
  }
  if (keep_in_memory != nullptr) {
    *keep_in_memory = std::make_unique<BitmapIndex>(std::move(*index));
  }
  return opened;
}

// Runs `setup_once(rep_dir)` kMinSetupReps times, then more until the
// repetitions total kMinSetupSeconds (at most kMaxSetupReps), so a cheap
// setup's median rests on enough samples; returns the median wall time in
// seconds.  The last repetition's state is the one measured.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 20;
constexpr double kMinSetupSeconds = 2.0;

template <typename Fn>
double RepeatSetup(const Options& opt, Tracing& t, Fn&& setup_once) {
  std::vector<double> samples;
  double total = 0;
  fs::path previous;
  for (int rep = 0;
       rep < kMinSetupReps ||
       (total < kMinSetupSeconds && rep < kMaxSetupReps);
       ++rep) {
    const fs::path dir = opt.work_dir / ("setup" + std::to_string(rep));
    std::error_code ec;
    fs::remove_all(dir, ec);
    const int64_t t0 = NowNs();
    {
      Scope root(t, "setup", "bench.setup");
      setup_once(dir);
    }
    samples.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    total += samples.back();
    if (!previous.empty()) fs::remove_all(previous, ec);
    previous = dir;
  }
  return Median(samples);
}

// ---------------------------------------------------------------------------
// The closed loop.  `step(traced)` runs one iteration and returns true when
// the run may stop after it (a schedule boundary).  Untraced runs measure
// `seconds` of timed work; traced runs alternate untraced and traced
// slices so their throughputs compare on the same data and machine state.

struct Phases {
  Tally untraced;
  Tally traced;
};

constexpr int kTraceSlicePairs = 4;

template <typename Step>
void RunLoop(const Options& opt, Tracing& tracing, SpanRecorder* recorder,
             Phases* phases, Step&& step) {
  const int64_t total_ns = static_cast<int64_t>(opt.seconds * 1e9);
  if (!opt.trace) {
    tracing.rec = nullptr;
    bool boundary = true;
    while (phases->untraced.timed_ns < total_ns || !boundary) {
      boundary = step(false, phases->untraced);
    }
    return;
  }
  const int64_t slice_ns = total_ns / (2 * kTraceSlicePairs);
  for (int slice = 0; slice < 2 * kTraceSlicePairs; ++slice) {
    const bool traced = slice % 2 == 1;
    tracing.rec = traced ? recorder : nullptr;
    Tally& tally = traced ? phases->traced : phases->untraced;
    const int64_t target = tally.timed_ns + slice_ns;
    bool boundary = true;
    while (tally.timed_ns < target || !boundary) {
      boundary = step(traced, tally);
    }
  }
  tracing.rec = recorder;
}

// Warm-up before measuring: caches fill and lazy set-up finishes.
template <typename Step>
void WarmUp(const Options& opt, Tracing& tracing, Step&& step) {
  SpanRecorder* saved = tracing.rec;
  tracing.rec = nullptr;
  Tally warm;
  const int64_t target =
      static_cast<int64_t>(std::min(1.0, opt.seconds * 0.1) * 1e9);
  while (warm.timed_ns < target) step(false, warm);
  tracing.rec = saved;
}

// Common end-to-end and per-layer numbers derived from a finished run.
struct RunOutput {
  double setup_s = 0;
  double space_ratio = 0;
  Phases phases;
  std::map<std::string, double> layer;  // per-layer values this workload set
  std::map<std::string, std::string> meta;  // extra metadata (JSON values)
};

double PerRootMedianUs(const SpanRecorder& rec, const char* name) {
  return Median(rec.PerRootNs(name)) / 1e3;
}

double PerRootMedianMs(const SpanRecorder& rec, const char* name) {
  return Median(rec.PerRootNs(name)) / 1e6;
}

void SetupLayerMetrics(const SpanRecorder& rec, RunOutput* out) {
  out->layer["core.build_ms"] = PerRootMedianMs(rec, "core.build");
  out->layer["core.row_order_ms"] = PerRootMedianMs(rec, "core.row_order");
  out->layer["storage.write_ms"] = PerRootMedianMs(rec, "storage.write");
  out->layer["storage.open_ms"] = PerRootMedianMs(rec, "storage.open");
}

void EngineLayerMetrics(const CounterDeltas& d, double queries,
                        RunOutput* out) {
  const double comp = d.Delta("wah_engine.compressed_ops");
  const double plain = d.Delta("wah_engine.plain_ops");
  out->layer["exec.compressed_op_frac"] =
      comp + plain > 0 ? comp / (comp + plain) : 0;
  if (queries > 0) {
    out->layer["exec.dense_fallbacks"] =
        d.Delta("wah_engine.dense_fallbacks") / queries;
    out->layer["exec.heap_events"] = d.Delta("wah_engine.heap_events") / queries;
  }
}

void StorageHealthMetrics(const CounterDeltas& d, RunOutput* out) {
  out->layer["storage.retries"] = d.Delta("storage.retries");
  out->layer["storage.checksum_failures"] = d.Delta("storage.checksum_failures");
  out->layer["storage.recoveries"] = d.Delta("storage.recoveries");
}

double CompressRatio(std::span<const std::unique_ptr<StoredIndex>> indexes) {
  double stored = 0, raw = 0;
  for (const auto& idx : indexes) {
    stored += static_cast<double>(idx->stored_bytes());
    raw += static_cast<double>(idx->uncompressed_bytes());
  }
  return raw > 0 ? stored / raw : 0;
}

// ---------------------------------------------------------------------------
// serve_zipf: four unsorted columns, range-encoded over the knee base, BS
// with lz77; a zipfian multi-tenant trace replayed closed-loop through
// QueryService::RunBatch with sharing on, one lane and one query per
// batch, plain engine.

RunOutput RunServeZipf(const Options& opt, Tracing& tracing,
                       SpanRecorder* recorder, Oracle& oracle) {
  RunOutput out;
  const std::vector<Column> cols = MakeLineitem(opt.rows, opt.seed);
  // One lane: RunBatch drains on the calling thread, with no hand-off to
  // pool workers.  With two or more lanes every batch wakes sleeping
  // workers and waits for the slowest, and on a shared VM host those
  // wake-ups measured the host's scheduler, not the service (4-vCPU KVM
  // guest, five seeds each: 3 lanes gave 4.7k-17.0k QPS and 0.22-4.2 ms
  // p99, 2 lanes 8.2k-13.4k QPS, 1 lane 8.4k-11.3k QPS and 138-181 us p99).
  const int lanes = 1;
  std::vector<std::unique_ptr<StoredIndex>> stored;
  std::vector<std::unique_ptr<BitmapIndex>> in_memory(cols.size());
  fs::path dir;
  out.setup_s = RepeatSetup(opt, tracing, [&](const fs::path& d) {
    dir = d;
    stored.clear();
    for (size_t c = 0; c < cols.size(); ++c) {
      stored.push_back(BuildStored(tracing, cols[c], cols[c].values,
                                   Encoding::kRange, "lz77",
                                   d / cols[c].name, {}, RowOrder::kNone,
                                   /*reopen=*/true,
                                   opt.trace ? &in_memory[c] : nullptr));
    }
  });
  out.space_ratio = static_cast<double>(bixbench::DirectoryBytes(dir)) /
                    (4.0 * static_cast<double>(opt.rows * cols.size()));

  serve::ServeOptions options;
  options.num_threads = lanes;
  options.max_pending = 4096;
  options.share_operands = true;
  options.engine = EngineKind::kPlain;
  serve::QueryService service(options);
  for (const auto& s : stored) service.AddColumn(s.get());

  TraceSpec spec;
  spec.num_columns = static_cast<uint32_t>(cols.size());
  spec.cardinality = kShipdateCardinality;
  spec.num_queries = 20 * kChunkQueries;
  spec.column_skew = 1.1;
  spec.value_skew = 1.3;
  spec.eq_fraction = 0.5;
  spec.seed = SubSeed(opt.seed, 10);
  std::vector<serve::ServeQuery> trace;
  for (const TraceQuery& tq : GenerateMultiTenantTrace(spec)) {
    serve::ServeQuery q;
    q.id = trace.size();
    q.column = tq.column;
    q.op = tq.op;
    // One constant domain for all four columns: fold it onto each column's
    // own cardinality so the zipf head stays on that column's low values.
    q.value = tq.v % cols[tq.column].cardinality;
    trace.push_back(q);
  }

  size_t cursor = 0;
  int64_t batches = 0;
  std::vector<double> probe_eval_us, probe_serve_us;
  CounterDeltas deltas;
  auto step = [&](bool traced, Tally& tally) {
    std::vector<serve::ServeQuery> batch;
    for (int i = 0; i < lanes; ++i) {
      batch.push_back(trace[cursor]);
      cursor = (cursor + 1) % trace.size();
    }
    const int64_t t0 = NowNs();
    std::vector<serve::ServeResult> results;
    {
      Scope root(tracing, "batch", "bench", tracing.next_query++);
      Scope call(tracing, "serve.run_batch", "serve");
      results = service.RunBatch(batch);
    }
    tally.timed_ns += NowNs() - t0;
    for (size_t i = 0; i < results.size(); ++i) {
      const serve::ServeResult& r = results[i];
      ++tally.attempted;
      switch (r.status.code()) {
        case Status::Code::kOk:
          break;
        case Status::Code::kResourceExhausted:
          ++tally.failed;
          ++tally.shed;
          continue;
        case Status::Code::kDeadlineExceeded:
          ++tally.failed;
          ++tally.deadline_misses;
          continue;
        default:
          ++tally.failed;
          continue;
      }
      ++tally.ok_queries;
      tally.AddQuery(static_cast<double>(r.latency_ns) / 1e3);
      tally.scans += r.stats.bitmap_scans;
      tally.ops += r.stats.TotalOps();
      tally.bytes_read += r.stats.bytes_read;
      oracle.CheckColumn(cols[batch[i].column], batch[i].column, batch[i].op,
                         batch[i].value, r.foundset, /*immutable=*/true);
    }
    // exec.eval probe: the same queries over the in-memory index with the
    // serve layer's ExecOptions — the compute floor without serve/storage.
    if (traced && batches++ % 4 == 0) {
      ExecOptions exec;
      exec.num_threads = 1;
      exec.engine = EngineKind::kPlain;
      for (size_t i = 0; i < results.size(); ++i) {
        if (!results[i].status.ok()) continue;
        const int64_t p0 = NowNs();
        recorder->Begin("exec.eval", "exec", 0, p0);
        Bitvector probe =
            EvaluatePredicate(*in_memory[batch[i].column], EvalAlgorithm::kAuto,
                              batch[i].op, batch[i].value, exec);
        const int64_t p1 = NowNs();
        recorder->End(p1);
        probe_eval_us.push_back(static_cast<double>(p1 - p0) / 1e3);
        probe_serve_us.push_back(
            static_cast<double>(results[i].latency_ns) / 1e3);
        oracle.CheckColumn(cols[batch[i].column], batch[i].column,
                           batch[i].op, batch[i].value, probe, true);
      }
    }
    return true;
  };

  WarmUp(opt, tracing, step);
  deltas.Begin();
  RunLoop(opt, tracing, recorder, &out.phases, step);

  if (opt.trace) {
    const Tally& t = out.phases.traced;
    const double q = static_cast<double>(out.phases.traced.ok_queries +
                                         out.phases.untraced.ok_queries);
    const double hits = deltas.Delta("serve.shared_fetch_hits");
    const double misses = deltas.Delta("serve.shared_fetch_misses");
    out.layer["serve.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    out.layer["serve.misses_per_query"] = q > 0 ? misses / q : 0;
    out.layer["storage.fetches_per_query"] = q > 0 ? misses / q : 0;
    out.layer["serve.run_batch_us"] =
        PerRootMedianUs(*recorder, "serve.run_batch");
    const double eval_p50 = Median(probe_eval_us);
    out.layer["exec.eval_us"] = eval_p50;
    out.layer["serve.overhead_us"] = Median(probe_serve_us) - eval_p50;
    out.layer["serve.shed"] = static_cast<double>(t.shed);
    out.layer["serve.deadline_misses"] =
        static_cast<double>(t.deadline_misses);
    if (t.ok_queries > 0) {
      const double n = static_cast<double>(t.ok_queries);
      out.layer["core.ops_per_query"] = static_cast<double>(t.ops) / n;
      out.layer["storage.bytes_read_per_query"] =
          static_cast<double>(t.bytes_read) / n;
    }
    out.layer["compress.ratio"] = CompressRatio(stored);
    StorageHealthMetrics(deltas, &out);
  }
  out.meta["lanes"] = std::to_string(lanes);
  return out;
}

// ---------------------------------------------------------------------------
// cold_sorted: the same four columns in histogram-aware multi-column Gray
// order, equality-encoded over the knee base, BS with the wah codec; one
// client calls StoredIndex::Evaluate (engine auto, no operand cache) with
// the paper's restricted {<=, =} queries at uniform constants.

struct PoolQuery {
  uint32_t column = 0;
  CompareOp op = CompareOp::kEq;
  int64_t v = 0;
};

// The i-th of n stratified uniform draws from [0, count): stratum i of n
// equal strata, at a seeded position `offset` in [0, 1) within it.  Every
// seed covers the range evenly, so aggregate costs do not hinge on which
// constants a small random sample happened to hit.
int64_t Stratified(size_t i, size_t n, double offset, uint32_t count) {
  return static_cast<int64_t>((static_cast<double>(i) + offset) *
                              static_cast<double>(count) /
                              static_cast<double>(n));
}

double UnitDraw(std::mt19937_64& rng) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
}

// The paper's restricted workload {<=, =} with uniform constants: for each
// of `columns` and each operator, `per_stratum` stratified constants; the
// pool is shuffled so columns and operators interleave.
std::vector<PoolQuery> RestrictedPool(const std::vector<Column>& cols,
                                      size_t per_stratum, uint64_t seed,
                                      std::span<const uint32_t> columns) {
  std::mt19937_64 rng(seed);
  std::vector<PoolQuery> pool;
  for (uint32_t c : columns) {
    for (CompareOp op : {CompareOp::kLe, CompareOp::kEq}) {
      const double offset = UnitDraw(rng);
      for (size_t i = 0; i < per_stratum; ++i) {
        pool.push_back({c, op,
                        Stratified(i, per_stratum, offset,
                                   cols[c].cardinality)});
      }
    }
  }
  std::shuffle(pool.begin(), pool.end(), rng);
  return pool;
}

RunOutput RunColdSorted(const Options& opt, Tracing& tracing,
                        SpanRecorder* recorder, Oracle& oracle) {
  RunOutput out;
  const std::vector<Column> cols = MakeLineitem(opt.rows, opt.seed);
  std::vector<std::unique_ptr<StoredIndex>> stored;
  std::vector<std::unique_ptr<BitmapIndex>> in_memory(cols.size());
  fs::path dir;
  out.setup_s = RepeatSetup(opt, tracing, [&](const fs::path& d) {
    dir = d;
    stored.clear();
    std::vector<uint32_t> perm;
    std::vector<std::vector<uint32_t>> physical(cols.size());
    Phase(tracing, "core.row_order", "core", [&] {
      std::vector<OrderColumn> order_cols;
      for (const Column& c : cols) order_cols.push_back({c.values, c.cardinality});
      perm = ComputeMultiColumnRowOrder(order_cols, RowOrder::kGray);
      for (size_t c = 0; c < cols.size(); ++c) {
        physical[c] = ApplyPermutation(cols[c].values, perm);
      }
    });
    for (size_t c = 0; c < cols.size(); ++c) {
      stored.push_back(BuildStored(tracing, cols[c], physical[c],
                                   Encoding::kEquality, "wah",
                                   d / cols[c].name, perm, RowOrder::kGray,
                                   /*reopen=*/true,
                                   opt.trace ? &in_memory[c] : nullptr));
    }
  });
  out.space_ratio = static_cast<double>(bixbench::DirectoryBytes(dir)) /
                    (4.0 * static_cast<double>(opt.rows * cols.size()));

  const uint32_t all_columns[] = {0, 1, 2, 3};
  const std::vector<PoolQuery> pool =
      RestrictedPool(cols, 128, SubSeed(opt.seed, 20), all_columns);
  ExecOptions exec;
  exec.num_threads = 1;
  exec.engine = EngineKind::kAuto;
  size_t cursor = 0;
  int64_t fetches = 0;
  CounterDeltas deltas;
  auto step = [&](bool traced, Tally& tally) {
    const PoolQuery& q = pool[cursor];
    cursor = (cursor + 1) % pool.size();
    const StoredIndex& index = *stored[q.column];
    EvalStats stats;
    Status status;
    Bitvector result;
    const int64_t t0 = NowNs();
    if (traced) {
      Scope root(tracing, "query", "bench", tracing.next_query++);
      result = TracedStoredEval(index, index.row_order(), q.op, q.v, &exec,
                                *recorder, &stats, &fetches, &status);
    } else {
      double decompress = 0;
      result = index.Evaluate(EvalAlgorithm::kAuto, q.op, q.v, &stats,
                              &decompress, &status, &exec);
    }
    const int64_t t1 = NowNs();
    tally.timed_ns += t1 - t0;
    ++tally.attempted;
    if (!status.ok()) {
      ++tally.failed;
      return true;
    }
    ++tally.ok_queries;
    tally.AddQuery(static_cast<double>(t1 - t0) / 1e3);
    tally.scans += stats.bitmap_scans;
    tally.ops += stats.TotalOps();
    tally.bytes_read += stats.bytes_read;
    oracle.CheckColumn(cols[q.column], q.column, q.op, q.v, result,
                       /*immutable=*/true);
    if (traced) {
      // exec.eval probe: the workload's ExecOptions over the in-memory
      // (physical-order) index — the compute floor with no storage.
      Bitvector probe;
      deltas.Exclude([&] {
        recorder->Begin("exec.eval", "exec", 0, NowNs());
        probe = EvaluatePredicate(*in_memory[q.column], EvalAlgorithm::kAuto,
                                  q.op, q.v, exec);
        recorder->End(NowNs());
      });
      oracle.CheckColumn(cols[q.column], q.column, q.op, q.v,
                         RemapToLogical(probe, index.row_order()), true);
    }
    return true;
  };

  WarmUp(opt, tracing, step);
  deltas.Begin();
  RunLoop(opt, tracing, recorder, &out.phases, step);

  if (opt.trace) {
    const Tally& t = out.phases.traced;
    const double n = static_cast<double>(t.ok_queries);
    const double all = static_cast<double>(out.phases.traced.ok_queries +
                                           out.phases.untraced.ok_queries);
    out.layer["storage.fetch_us"] = PerRootMedianUs(*recorder, "storage.fetch");
    out.layer["compress.decode_us"] =
        PerRootMedianUs(*recorder, "compress.decode");
    out.layer["core.remap_us"] = PerRootMedianUs(*recorder, "core.remap");
    out.layer["exec.eval_us"] = PerRootMedianUs(*recorder, "exec.eval");
    if (n > 0) {
      out.layer["storage.fetches_per_query"] =
          static_cast<double>(fetches) / n;
      out.layer["storage.bytes_read_per_query"] =
          static_cast<double>(t.bytes_read) / n;
      out.layer["core.ops_per_query"] = static_cast<double>(t.ops) / n;
    }
    out.layer["compress.ratio"] = CompressRatio(stored);
    EngineLayerMetrics(deltas, all, &out);
    StorageHealthMetrics(deltas, &out);
    // Installed by the calibration StoredIndex::Open runs (permille).
    out.layer["exec.calibrated_ratio"] =
        static_cast<double>(obs::MetricsRegistry::Global()
                                .GetGauge("wah_engine.calibrated_ratio")
                                .value()) /
        1000.0;
  }
  out.meta["row_order"] = "\"gray\"";
  return out;
}

// ---------------------------------------------------------------------------
// mutate_mixed: l_quantity (unsorted, range, lz77) and l_shipdate
// (Gray-sorted, equality, wah), each a MutableStoredIndex.  One client runs
// a fixed seeded schedule shaped on TPC-H's refresh functions: a refresh
// pair is kQueriesPerPair queries (the 22 queries the power test runs
// between RF1 and RF2), then RF1 — one fsynced Append of rows/1000 rows per
// column, the ~0.1% of LINEITEM a new-sales refresh inserts — then RF2 —
// one Delete of rows/1000 logical rows per column, the old-sales refresh.
// The queries come first so each cycle's first pair reads the freshly
// compacted index (storage.compacted_eval_us).  TPC-H has no compaction: here a cycle ends after kPairsPerCycle pairs,
// when the pending appends reach 1% of the base rows, with a Compact of
// each column (resorting the sorted one).  A chunk is one cycle, ended
// after its compactions; the loop stops only at cycle ends.

constexpr int kQueriesPerPair = 22;
constexpr size_t kRowsPerRefresh = 1000;  // one refresh touches rows / this
constexpr int kPairsPerCycle = 10;
// One cycle's queries: the query pool's length, so every chunk replays the
// whole pool.
constexpr size_t kCycleQueries = kQueriesPerPair * kPairsPerCycle;

RunOutput RunMutateMixed(const Options& opt, Tracing& tracing,
                         SpanRecorder* recorder, Oracle& oracle) {
  RunOutput out;
  const std::vector<Column> lineitem = MakeLineitem(opt.rows, opt.seed);
  // Logical columns the oracle evaluates; mutated alongside the indexes.
  std::vector<Column> cols = {lineitem[0], lineitem[3]};
  const Encoding encodings[] = {Encoding::kRange, Encoding::kEquality};
  const char* codecs[] = {"lz77", "wah"};
  const RowOrder orders[] = {RowOrder::kNone, RowOrder::kGray};
  std::vector<std::unique_ptr<MutableStoredIndex>> mutable_idx;
  fs::path dir;
  out.setup_s = RepeatSetup(opt, tracing, [&](const fs::path& d) {
    dir = d;
    mutable_idx.clear();
    for (size_t c = 0; c < cols.size(); ++c) {
      std::vector<uint32_t> perm;
      std::vector<uint32_t> physical;
      const BaseSequence base = KneeBase(cols[c].cardinality);
      if (orders[c] != RowOrder::kNone) {
        Phase(tracing, "core.row_order", "core", [&] {
          perm = ComputeRowOrder(cols[c].values, cols[c].cardinality, base,
                                 orders[c]);
          physical = ApplyPermutation(cols[c].values, perm);
        });
      }
      const fs::path col_dir = d / cols[c].name;
      BuildStored(tracing, cols[c], perm.empty() ? cols[c].values : physical,
                  encodings[c], codecs[c], col_dir, perm, orders[c],
                  /*reopen=*/false, nullptr);
      std::unique_ptr<MutableStoredIndex> m;
      Phase(tracing, "storage.open", "storage", [&] {
        CheckOk(MutableStoredIndex::Open(col_dir, &m), "open mutable");
      });
      mutable_idx.push_back(std::move(m));
    }
  });

  const uint32_t both_columns[] = {0, 1};
  const std::vector<PoolQuery> pool =
      RestrictedPool(cols, kCycleQueries / 4, SubSeed(opt.seed, 31),
                     both_columns);
  out.phases.untraced.chunk_queries = 0;
  out.phases.traced.chunk_queries = 0;
  const size_t refresh_rows = std::max<size_t>(1, opt.rows / kRowsPerRefresh);
  size_t cursor = 0;
  std::mt19937_64 rng(SubSeed(opt.seed, 30));
  int64_t pairs = 0;
  int64_t fetches = 0;
  int64_t appended_rows = 0;
  std::vector<double> append_us, delete_us, overlay_us, compacted_us;
  // Untraced timed nanoseconds by kind of call.
  int64_t query_ns = 0, append_ns = 0, delete_ns = 0, compact_ns = 0;
  auto timed_write = [&](Tally& tally, bool traced, int64_t* kind_ns,
                         const char* root, const char* span,
                         const std::function<Status()>& call) {
    const int64_t t0 = NowNs();
    Status s;
    {
      Scope r(tracing, root, "bench", tracing.next_query++);
      Scope c(tracing, span, "storage");
      s = call();
    }
    const int64_t t1 = NowNs();
    tally.timed_ns += t1 - t0;
    if (!traced) *kind_ns += t1 - t0;
    ++tally.attempted;
    if (!s.ok()) {
      ++tally.failed;
      Die(2, std::string(span) + " failed: " + s.ToString());
    }
    return static_cast<double>(t1 - t0);
  };

  CounterDeltas deltas;
  auto step = [&](bool traced, Tally& tally) {
    // Queries.
    for (int i = 0; i < kQueriesPerPair; ++i) {
      const PoolQuery& pq = pool[cursor];
      cursor = (cursor + 1) % pool.size();
      const size_t c = pq.column;
      const CompareOp op = pq.op;
      const int64_t v = pq.v;
      const MutableStoredIndex& index = *mutable_idx[c];
      const bool pending = index.has_pending();
      EvalStats stats;
      Status status;
      Bitvector result;
      const int64_t t0 = NowNs();
      if (traced) {
        Scope root(tracing, pending ? "overlay_query" : "compacted_query",
                   "bench", tracing.next_query++);
        result = TracedStoredEval(index, index.base()->row_order(), op, v,
                                  nullptr, *recorder, &stats, &fetches,
                                  &status);
      } else {
        result = index.Evaluate(EvalAlgorithm::kAuto, op, v, &stats, nullptr,
                                &status);
      }
      const int64_t t1 = NowNs();
      tally.timed_ns += t1 - t0;
      if (!traced) query_ns += t1 - t0;
      ++tally.attempted;
      if (!status.ok()) {
        ++tally.failed;
        continue;
      }
      ++tally.ok_queries;
      const double us = static_cast<double>(t1 - t0) / 1e3;
      tally.AddQuery(us);
      if (traced) (pending ? overlay_us : compacted_us).push_back(us);
      tally.scans += stats.bitmap_scans;
      tally.ops += stats.TotalOps();
      tally.bytes_read += stats.bytes_read;
      oracle.CheckColumn(cols[c], c, op, v, result, /*immutable=*/false);
    }
    // RF1: one append per column; RF2: one delete per column (the same
    // logical rows across both columns, as deleting table rows would).
    std::vector<std::vector<uint32_t>> appends(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      for (size_t i = 0; i < refresh_rows; ++i) {
        appends[c].push_back(
            static_cast<uint32_t>(rng() % cols[c].cardinality));
      }
    }
    const size_t rows_now = cols[0].values.size() + refresh_rows;
    std::vector<uint32_t> deletes;
    for (size_t i = 0; i < refresh_rows; ++i) {
      deletes.push_back(static_cast<uint32_t>(rng() % rows_now));
    }
    for (size_t c = 0; c < cols.size(); ++c) {
      const double ns = timed_write(
          tally, traced, &append_ns, "append", "storage.append",
          [&] { return mutable_idx[c]->Append(appends[c]); });
      tally.write_us.push_back(ns / 1e3);
      if (traced) append_us.push_back(ns / 1e3);
      cols[c].values.insert(cols[c].values.end(), appends[c].begin(),
                            appends[c].end());
      appended_rows += static_cast<int64_t>(refresh_rows);
    }
    for (size_t c = 0; c < cols.size(); ++c) {
      const double ns = timed_write(
          tally, traced, &delete_ns, "delete", "storage.delete",
          [&] { return mutable_idx[c]->Delete(deletes); });
      tally.write_us.push_back(ns / 1e3);
      if (traced) delete_us.push_back(ns / 1e3);
      for (uint32_t r : deletes) cols[c].values[r] = kNullValue;
    }
    const bool cycle_end = ++pairs % kPairsPerCycle == 0;
    if (cycle_end) {
      for (size_t c = 0; c < cols.size(); ++c) {
        const bool resort = orders[c] != RowOrder::kNone;
        const double ns = timed_write(
            tally, traced, &compact_ns, "compact", "storage.compact",
            [&] { return mutable_idx[c]->Compact(resort, orders[c]); });
        tally.compact_ms.push_back(ns / 1e6);
      }
      tally.EndChunk();
    }
    return cycle_end;
  };

  deltas.Begin();
  RunLoop(opt, tracing, recorder, &out.phases, step);

  uint64_t bytes = 0;
  size_t raw_values = 0;
  for (size_t c = 0; c < cols.size(); ++c) {
    bytes += bixbench::DirectoryBytes(dir / cols[c].name);
    raw_values += cols[c].values.size();
  }
  out.space_ratio =
      static_cast<double>(bytes) / (4.0 * static_cast<double>(raw_values));

  if (opt.trace) {
    const Tally& t = out.phases.traced;
    const double n = static_cast<double>(t.ok_queries);
    out.layer["storage.append_us"] = Median(append_us);
    out.layer["storage.delete_us"] = Median(delete_us);
    out.layer["storage.compact_ms"] =
        PerRootMedianMs(*recorder, "storage.compact");
    out.layer["storage.wal_bytes_per_row"] =
        appended_rows > 0 ? deltas.Delta("storage.wal_bytes") /
                                static_cast<double>(appended_rows)
                          : 0;
    out.layer["storage.overlay_eval_us"] = Median(overlay_us);
    out.layer["storage.compacted_eval_us"] = Median(compacted_us);
    out.layer["storage.fetch_us"] = PerRootMedianUs(*recorder, "storage.fetch");
    out.layer["compress.decode_us"] =
        PerRootMedianUs(*recorder, "compress.decode");
    out.layer["core.remap_us"] = PerRootMedianUs(*recorder, "core.remap");
    if (n > 0) {
      out.layer["storage.fetches_per_query"] =
          static_cast<double>(fetches) / n;
      out.layer["storage.bytes_read_per_query"] =
          static_cast<double>(t.bytes_read) / n;
      out.layer["core.ops_per_query"] = static_cast<double>(t.ops) / n;
    }
    double stored = 0, raw = 0;
    for (const auto& m : mutable_idx) {
      stored += static_cast<double>(m->base()->stored_bytes());
      raw += static_cast<double>(m->base()->uncompressed_bytes());
    }
    out.layer["compress.ratio"] = raw > 0 ? stored / raw : 0;
    StorageHealthMetrics(deltas, &out);
  }
  const double timed = static_cast<double>(query_ns + append_ns + delete_ns +
                                            compact_ns);
  auto share = [&](int64_t ns) {
    return std::to_string(timed > 0 ? static_cast<double>(ns) / timed : 0);
  };
  out.meta["schedule"] =
      "{\"queries_per_pair\": " + std::to_string(kQueriesPerPair) +
      ", \"rows_per_refresh\": " + std::to_string(refresh_rows) +
      ", \"pairs_per_cycle\": " + std::to_string(kPairsPerCycle) +
      ", \"pairs_run\": " + std::to_string(pairs) +
      ", \"cycles_run\": " + std::to_string(pairs / kPairsPerCycle) +
      ", \"rows_at_end\": " + std::to_string(cols[0].values.size()) +
      ", \"flush\": \"fsync per acknowledged batch\"}";
  // Where the untraced timed time went.
  out.meta["timed_share"] = "{\"queries\": " + share(query_ns) +
                            ", \"appends\": " + share(append_ns) +
                            ", \"deletes\": " + share(delete_ns) +
                            ", \"compactions\": " + share(compact_ns) + "}";
  return out;
}

// ---------------------------------------------------------------------------
// q6_conjunction: an in-memory Table over quantity, discount and shipdate
// with knee-base range bitmap indexes; TPC-H q6-shaped conjunctions
// (shipdate in a one-year window, discount in d +- 1, quantity < q) through
// SelectionPlanner::Choose + Execute with engine auto.

RunOutput RunQ6(const Options& opt, Tracing& tracing, SpanRecorder* recorder,
                Oracle& oracle) {
  RunOutput out;
  const std::vector<Column> lineitem = MakeLineitem(opt.rows, opt.seed);
  const Column* cols[] = {&lineitem[0], &lineitem[1], &lineitem[3]};
  std::optional<Table> table;
  out.setup_s = RepeatSetup(opt, tracing, [&](const fs::path&) {
    table.emplace(opt.rows);
    for (const Column* c : cols) {
      table->AddColumn(c->name, c->values, c->cardinality);
    }
    for (int a = 0; a < 3; ++a) {
      Phase(tracing, "core.build", "core", [&] {
        table->BuildBitmapIndex(a, KneeBase(cols[a]->cardinality),
                                Encoding::kRange);
      });
    }
  });
  double index_bytes = 0;
  for (int a = 0; a < 3; ++a) {
    const BitmapIndex& idx = *table->bitmap_index(a);
    for (int comp = 0; comp < idx.base().num_components(); ++comp) {
      index_bytes += NumStoredBitmaps(idx.encoding(), idx.base().base(comp)) *
                     8.0 * static_cast<double>((opt.rows + 63) / 64);
    }
  }
  out.space_ratio = index_bytes / (4.0 * 3.0 * static_cast<double>(opt.rows));

  SelectionPlanner planner(*table);
  ExecOptions exec;
  exec.num_threads = 1;
  exec.engine = EngineKind::kAuto;
  planner.set_exec_options(exec);

  // A Latin-hypercube pool: the window start, discount centre and quantity
  // bound are each stratified over their ranges and paired by seeded
  // shuffles.  Its length is one chunk, so a chunk's p99 is set by the ten
  // slowest distinct queries rather than by repeats of a few.
  constexpr size_t kPool = kChunkQueries;
  std::mt19937_64 rng(SubSeed(opt.seed, 40));
  std::vector<size_t> d_stratum(kPool), q_stratum(kPool);
  for (size_t i = 0; i < kPool; ++i) d_stratum[i] = q_stratum[i] = i;
  std::shuffle(d_stratum.begin(), d_stratum.end(), rng);
  std::shuffle(q_stratum.begin(), q_stratum.end(), rng);
  const double offsets[] = {UnitDraw(rng), UnitDraw(rng), UnitDraw(rng)};
  std::vector<ConjunctiveQuery> pool;
  for (size_t i = 0; i < kPool; ++i) {
    const int64_t start =
        Stratified(i, kPool, offsets[0], kShipdateCardinality - 365);
    const int64_t d = 1 + Stratified(d_stratum[i], kPool, offsets[1], 9);
    const int64_t q = 2 + Stratified(q_stratum[i], kPool, offsets[2], 49);
    pool.push_back({{2, CompareOp::kGe, start},
                    {2, CompareOp::kLt, start + 365},
                    {1, CompareOp::kGe, d - 1},
                    {1, CompareOp::kLe, d + 1},
                    {0, CompareOp::kLt, q}});
  }

  // ScanEvaluate per predicate; the few distinct discount and quantity
  // predicates are scanned once and kept.
  std::map<std::tuple<int, CompareOp, int64_t>, Bitvector> small_domain_scans;
  auto scan = [&](const Predicate& p) -> Bitvector {
    if (table->cardinality(p.attribute) > 64) {
      return ScanEvaluate(table->column(p.attribute), p.op, p.v);
    }
    auto [it, fresh] = small_domain_scans.try_emplace({p.attribute, p.op, p.v});
    if (fresh) it->second = ScanEvaluate(table->column(p.attribute), p.op, p.v);
    return it->second;
  };

  size_t cursor = 0;
  int64_t p3 = 0, planned = 0;
  std::vector<double> drift;
  CounterDeltas deltas;
  auto step = [&](bool traced, Tally& tally) {
    const size_t qi = cursor;
    const ConjunctiveQuery& query = pool[qi];
    cursor = (cursor + 1) % pool.size();
    const int64_t t0 = NowNs();
    PlanEstimate plan;
    ExecutionResult result;
    {
      Scope root(tracing, "query", "bench", tracing.next_query++);
      {
        Scope s(tracing, "plan.choose", "plan");
        plan = planner.Choose(query);
      }
      Scope s(tracing, "plan.execute", "plan");
      result = planner.Execute(query, plan);
    }
    const int64_t t1 = NowNs();
    tally.timed_ns += t1 - t0;
    ++tally.attempted;
    ++tally.ok_queries;
    tally.AddQuery(static_cast<double>(t1 - t0) / 1e3);
    tally.scans += result.bitmap_scans;
    tally.bytes_read += result.bytes_read;
    auto expected = [&] {
      Bitvector all = Bitvector::Ones(opt.rows);
      for (const Predicate& p : query) all.AndWith(scan(p));
      return all;
    };
    const std::string what = "q6 pool query " + std::to_string(qi);
    oracle.Check(qi + 1, expected, result.foundset, what);
    if (traced) {
      ++planned;
      if (plan.kind == PlanKind::kIndexMerge) ++p3;
      if (plan.estimated_bytes > 0) {
        drift.push_back(std::abs(static_cast<double>(result.bytes_read) -
                                 plan.estimated_bytes) /
                        plan.estimated_bytes);
      }
      // bitmap.and_of_many probe: P3's k-ary merge of the probed foundsets,
      // timed from outside on foundsets probed the way P3 probes them.
      WahBitvector merged;
      deltas.Exclude([&] {
        std::vector<WahBitvector> found;
        for (const Predicate& p : query) {
          found.push_back(exec::EvaluateToWah(
              *table->bitmap_index(p.attribute), EvalAlgorithm::kAuto, p.op,
              p.v, exec.engine));
        }
        std::vector<const WahBitvector*> ptrs;
        for (const WahBitvector& w : found) ptrs.push_back(&w);
        recorder->Begin("bitmap.and_of_many", "bitmap", 0, NowNs());
        merged = WahBitvector::AndOfMany(ptrs);
        recorder->End(NowNs());
      });
      oracle.Check(qi + 1, expected, merged.ToBitvector(), what);
    }
    return true;
  };

  WarmUp(opt, tracing, step);
  deltas.Begin();
  RunLoop(opt, tracing, recorder, &out.phases, step);

  if (opt.trace) {
    out.layer["plan.choose_us"] = PerRootMedianUs(*recorder, "plan.choose");
    out.layer["plan.execute_us"] = PerRootMedianUs(*recorder, "plan.execute");
    out.layer["plan.p3_frac"] =
        planned > 0 ? static_cast<double>(p3) / static_cast<double>(planned)
                    : 0;
    out.layer["plan.bytes_drift"] = Mean(drift);
    out.layer["bitmap.and_of_many_us"] =
        PerRootMedianUs(*recorder, "bitmap.and_of_many");
    const double all = static_cast<double>(out.phases.traced.ok_queries +
                                           out.phases.untraced.ok_queries);
    EngineLayerMetrics(deltas, all, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Build identity and argument parsing.

std::string Sanitizers() {
  std::string s;
#if defined(__SANITIZE_ADDRESS__)
  s += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  s += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer) ||                         \
    __has_feature(memory_sanitizer)
  s += "clang-sanitizer ";
#endif
#endif
  if (std::strstr(BIXBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    s += "flags ";
  }
  if (!s.empty()) s.pop_back();
  return s;
}

bool Optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die(2, "flag " + flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = value == "1";
      else if (flag == "--rows") opt.rows = std::stoull(value);
      else if (flag == "--work-dir") opt.work_dir = value;
      else if (flag == "--trace-out") opt.trace_out = value;
      else if (flag == "--git-sha") opt.git_sha = value;
      else if (flag == "--src-digest") opt.src_digest = value;
      else Die(2, "unknown flag " + flag);
    } catch (const std::exception&) {
      Die(2, "bad value for " + flag + ": " + value);
    }
  }
  if (opt.workload.empty() || opt.work_dir.empty()) {
    Die(2, "--workload and --work-dir are required");
  }
  if (opt.rows < 1000 || opt.seconds <= 0) {
    Die(2, "need --rows >= 1000 and --seconds > 0");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const std::string sanitizers = Sanitizers();
  if (!Optimized() || !sanitizers.empty()) {
    Die(4, "refusing to report numbers from a " +
               std::string(Optimized() ? "" : "non-optimised ") +
               (sanitizers.empty() ? "" : "sanitizer (" + sanitizers + ") ") +
               "build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  std::error_code ec;
  fs::create_directories(opt.work_dir, ec);
  if (ec) Die(2, "cannot create " + opt.work_dir.string());

  SpanRecorder recorder;
  Tracing tracing;
  tracing.rec = opt.trace ? &recorder : nullptr;
  Oracle oracle;

  RunOutput out;
  if (opt.workload == "serve_zipf") {
    out = RunServeZipf(opt, tracing, &recorder, oracle);
  } else if (opt.workload == "cold_sorted") {
    out = RunColdSorted(opt, tracing, &recorder, oracle);
  } else if (opt.workload == "mutate_mixed") {
    out = RunMutateMixed(opt, tracing, &recorder, oracle);
  } else if (opt.workload == "q6_conjunction") {
    out = RunQ6(opt, tracing, &recorder, oracle);
  } else {
    Die(2, "unknown workload " + opt.workload);
  }

  const Tally& e2e = opt.trace ? out.phases.traced : out.phases.untraced;
  const bixbench::ChunkedSummary query =
      bixbench::SummarizeChunks(e2e.query_us, e2e.chunk_ends, e2e.timed_ns);
  if (query.chunks < 3) {
    std::fprintf(stderr,
                 "bixbench: warning: only %zu query chunk(s); the closed-loop "
                 "figures are not medians over chunks\n",
                 query.chunks);
  }
  const LatencySummary write = Summarize(e2e.write_us);
  const int64_t attempted =
      out.phases.untraced.attempted + out.phases.traced.attempted;
  const int64_t failed = out.phases.untraced.failed + out.phases.traced.failed;

  Report report(opt.trace ? std::span<const MetricDef>(kPerLayer)
                          : std::span<const MetricDef>(kEndToEnd));
  if (!opt.trace) {
    const Tally& t = out.phases.untraced;
    report.Set("setup_s", out.setup_s);
    report.Set("query_qps", query.qps);
    report.Set("query_p50_us", query.p50);
    report.Set("query_p99_us", query.tail);
    report.Set("scans_per_query",
               t.ok_queries > 0 ? static_cast<double>(t.scans) /
                                      static_cast<double>(t.ok_queries)
                                : 0);
    report.Set("space_ratio", out.space_ratio);
    report.Set("peak_rss_mb", PeakRssMb());
  } else {
    SetupLayerMetrics(recorder, &out);
    for (const auto& [name, value] : out.layer) report.Set(name, value);
    const Tally& t = out.phases.traced;
    report.Set("write_p50_us", write.p50);
    report.Set("write_p99_us", write.tail);
    report.Set("compact_ms", Median(t.compact_ms));
    report.Set("error_rate", t.attempted > 0
                                 ? static_cast<double>(t.failed) /
                                       static_cast<double>(t.attempted)
                                 : 0);
    const double untraced_qps = out.phases.untraced.qps();
    const double traced_qps = t.qps();
    report.Set("obs.trace_overhead_pct",
               traced_qps > 0 ? (untraced_qps / traced_qps - 1.0) * 100.0 : 0);
    const bixbench::SpanTotals loop = recorder.RootTotals("bench");
    report.Set("obs.unattributed_pct",
               loop.total_ns > 0 ? 100.0 * static_cast<double>(loop.self_ns) /
                                       static_cast<double>(loop.total_ns)
                                 : 0);
  }

  std::ostringstream meta;
  meta.precision(10);
  meta << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
       << ", \"rows\": " << opt.rows << ", \"seconds\": " << opt.seconds
       << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ", \"usable_cpus\": " << UsableCpus()
       << ", \"build_type\": \"" << BIXBENCH_BUILD_TYPE << "\""
       << ", \"cxx_flags\": \"" << bixbench::JsonEscape(BIXBENCH_CXX_FLAGS)
       << "\", \"optimized\": " << (Optimized() ? "true" : "false")
       << ", \"sanitizers\": \"" << sanitizers << "\""
       << ", \"compiler\": \"" << bixbench::JsonEscape(__VERSION__) << "\""
       << ", \"git_sha\": \"" << bixbench::JsonEscape(opt.git_sha) << "\""
       << ", \"src_digest\": \"" << bixbench::JsonEscape(opt.src_digest)
       << "\", \"query_samples\": " << query.samples
       << ", \"query_chunks\": " << query.chunks
       << ", \"query_tail_percentile\": " << query.tail_percentile
       << ", \"write_samples\": " << write.samples
       << ", \"write_tail_percentile\": " << write.tail_percentile
       << ", \"oracle_checks\": " << oracle.checks();
  for (const auto& [key, value] : out.meta) {
    meta << ", \"" << key << "\": " << value;
  }
  meta << "}";

  if (opt.trace && !opt.trace_out.empty()) {
    std::ofstream f(opt.trace_out);
    f << recorder.ToChromeTrace(meta.str());
    if (!f) Die(2, "cannot write " + opt.trace_out.string());
  }

  std::printf("{\"meta\": %s}\n", meta.str().c_str());
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), report.ToJson().c_str());
  std::fflush(stdout);
  std::error_code cleanup;
  fs::remove_all(opt.work_dir, cleanup);
  return 0;
}
