// bixctl — command-line front end for building, inspecting, and querying
// disk-resident bitmap indexes.
//
//   bixctl build  --csv data.csv --col 0 --dir ./idx
//                 [--base "28,36"] [--budget M] [--encoding range|equality]
//                 [--scheme bs|cs|is] [--codec none|lz77|rle|huffman|deflate]
//                 [--sort none|lex|gray]
//   bixctl info   --dir ./idx
//   bixctl query  --dir ./idx --pred "<= 24" [--limit 10]
//   bixctl explain --dir ./idx --pred "<= 24" [--analyze] [--flame-out F]
//   bixctl append --dir ./idx --values "24,36,null"
//   bixctl delete --dir ./idx (--rows "0,5,7" | --pred "<= 24")
//   bixctl compact --dir ./idx [--resort [lex|gray]]
//   bixctl verify --dir ./idx
//   bixctl scrub  --dir ./idx --inject SEED
//   bixctl advise --cardinality 1000 [--budget 100]
//   bixctl benchdiff BASELINE.json FRESH.json [--band F] [--force]
//   bixctl serve  --dirs ./idx1,./idx2 [--trace F] [--threads N] [--queue K]
//                 [--deadline-ms D] [--batch B] [--no-share] [--engine E]
//   bixctl bench-serve [--columns N] [--rows R] [--cardinality C]
//                 [--queries Q] [--col-skew S] [--val-skew S] [--threads N]
//                 [--batch B] [--codec NAME] [--engine E] [--seed S] [--out F]
//
// Every command also accepts --metrics-out=FILE to dump the process-wide
// metrics registry in Prometheus text exposition format on exit.
//
// Raw attribute values from the CSV are mapped to dense ranks via a lookup
// table (the paper's Section 2 value map) persisted next to the index, so
// query constants are expressed in the raw domain.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "compress/huffman.h"
#include "core/advisor.h"
#include "core/bitmap_index.h"
#include "core/cost_model.h"
#include "core/eval_stats.h"
#include "core/row_order.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "bench/bench_json.h"
#include "plan/predicate_parser.h"
#include "serve/service.h"
#include "storage/delta.h"
#include "storage/env.h"
#include "storage/format.h"
#include "storage/stored_index.h"
#include "tools/benchdiff_lib.h"
#include "workload/csv.h"
#include "workload/generators.h"
#include "workload/queries.h"
#include "workload/value_map.h"

namespace bix::tool {
namespace {

constexpr const char* kValueMapFile = "values.map";

class Flags {
 public:
  // `--key value` pairs or `--key=value`; boolean flags (`--stats`,
  // `--analyze`, `--force`) may appear bare and store "1".  Any other
  // `--key` without a value is a usage error — otherwise `--trace-out` at
  // the end of the line would silently write to a file named "1".
  Flags(int argc, char** argv) {
    int i = 0;
    while (i < argc) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        ok_ = false;
        return;
      }
      size_t eq = key.find('=');
      if (eq != std::string::npos) {
        values_[key.substr(2, eq - 2)] = key.substr(eq + 1);
        i += 1;
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key.substr(2)] = argv[i + 1];
        i += 2;
      } else if (key == "--stats" || key == "--analyze" || key == "--force" ||
                 key == "--no-share" || key == "--resort") {
        values_[key.substr(2)] = "1";
        i += 1;
      } else {
        ok_ = false;
        return;
      }
    }
  }

  bool ok() const { return ok_; }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::optional<std::string> Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string GetOr(const std::string& key, std::string fallback) const {
    return Get(key).value_or(std::move(fallback));
  }
  std::optional<int64_t> GetInt(const std::string& key) const {
    auto v = Get(key);
    if (!v.has_value()) return std::nullopt;
    return std::atoll(v->c_str());
  }
  /// The first key given that `accepted` does not list, if any.
  std::optional<std::string> UnknownKey(
      const std::vector<std::string_view>& accepted) const {
    for (const auto& [key, value] : values_) {
      if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
        return key;
      }
    }
    return std::nullopt;
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "bixctl: %s\n", message.c_str());
  return 1;
}

constexpr char kBadEngine[] = "--engine must be plain or auto";

// --engine (default plain); false on any other value.
bool ParseEngineFlag(const Flags& flags, EngineKind* out) {
  const std::string engine = flags.GetOr("engine", "plain");
  if (engine == "plain") *out = EngineKind::kPlain;
  else if (engine == "auto") *out = EngineKind::kAuto;
  else return false;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  bixctl build   --csv F --col N --dir D [--base \"b,..\"] "
               "[--budget M]\n"
               "                 [--encoding range|equality] [--scheme "
               "bs|cs|is] [--codec NAME]\n"
               "                 [--sort none|lex|gray]\n"
               "  bixctl info    --dir D\n"
               "  bixctl query   --dir D --pred \"<= 24\" [--limit K] "
               "[--stats]\n"
               "                 [--trace-out FILE] [--flame-out FILE] "
               "[--engine plain|auto]\n"
               "  bixctl explain --dir D --pred \"<= 24\" [--analyze] "
               "[--flame-out FILE]\n"
               "                 [--engine plain|auto]\n"
               "  bixctl append  --dir D --values \"24,36,null,..\"\n"
               "  bixctl delete  --dir D (--rows \"0,5,..\" | --pred "
               "\"<= 24\")\n"
               "  bixctl compact --dir D [--resort [lex|gray]]\n"
               "  bixctl verify  --dir D\n"
               "  bixctl scrub   --dir D --inject SEED\n"
               "  bixctl advise  --cardinality C [--budget M]\n"
               "  bixctl benchdiff BASE.json FRESH.json [--band F] "
               "[--force]\n"
               "  bixctl serve   --dirs D1,D2,.. [--trace F] [--threads N] "
               "[--queue K]\n"
               "                 [--deadline-ms D] [--batch B] [--no-share] "
               "[--engine E]\n"
               "  bixctl bench-serve [--columns N] [--rows R] "
               "[--cardinality C] [--queries Q]\n"
               "                 [--col-skew S] [--val-skew S] [--threads N] "
               "[--batch B]\n"
               "                 [--codec NAME] [--engine E] [--seed S] "
               "[--out FILE]\n"
               "(any command: --metrics-out FILE dumps Prometheus metrics)\n");
  return 2;
}

// A flag the command does not read is a usage error that names it, so a
// typo such as `--limt` fails instead of being silently ignored.
int UnknownFlagUsage(const std::string& command, const std::string& key) {
  std::fprintf(stderr, "bixctl: unknown flag --%s for %s\n", key.c_str(),
               command.c_str());
  return Usage();
}

// query and explain evaluate on the calling thread, so --threads there is a
// usage error rather than a flag that is silently ignored.
int ThreadsUsage() {
  std::fprintf(stderr,
               "bixctl: --threads applies only to serve and bench-serve\n");
  return Usage();
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << text;
  return static_cast<bool>(f);
}

Status WriteValueMap(const std::filesystem::path& dir, const ValueMap& map) {
  std::ofstream f(dir / kValueMapFile, std::ios::trunc);
  if (!f) return Status::IoError("cannot write value map");
  for (uint32_t r = 0; r < map.cardinality(); ++r) {
    f << map.ValueOf(r) << "\n";
  }
  return f ? Status::OK() : Status::IoError("value map write failed");
}

Status ReadValueMap(const std::filesystem::path& dir, ValueMap* out) {
  std::ifstream f(dir / kValueMapFile);
  if (!f) return Status::IoError("cannot open value map in " + dir.string());
  std::vector<int64_t> values;
  int64_t v;
  while (f >> v) values.push_back(v);
  if (values.empty()) return Status::Corruption("empty value map");
  *out = ValueMap::FromColumn(values);
  return Status::OK();
}

// Parses a comma-separated most-significant-first base list.
bool ParseBase(const std::string& text, BaseSequence* out) {
  std::vector<uint32_t> bases;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    std::string part = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!part.empty()) {
      int64_t b = std::atoll(part.c_str());
      if (b < 2) return false;
      bases.push_back(static_cast<uint32_t>(b));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (bases.empty()) return false;
  *out = BaseSequence::FromMsbFirst(bases);
  return true;
}

int CmdBuild(const Flags& flags) {
  auto csv = flags.Get("csv");
  auto dir = flags.Get("dir");
  if (!csv || !dir) return Usage();
  int column_index = static_cast<int>(flags.GetInt("col").value_or(0));

  CsvColumn column;
  Status s = ReadCsvColumn(*csv, column_index, &column);
  if (!s.ok()) return Fail(s.ToString());
  if (column.values.empty()) return Fail("no rows in input column");

  std::vector<int64_t> non_null;
  for (const auto& v : column.values) {
    if (v.has_value()) non_null.push_back(*v);
  }
  if (non_null.empty()) return Fail("column is entirely NULL");
  ValueMap map = ValueMap::FromColumn(non_null);
  std::vector<uint32_t> ranks;
  ranks.reserve(column.values.size());
  for (const auto& v : column.values) {
    ranks.push_back(v.has_value() ? map.RankOf(*v) : kNullValue);
  }

  Encoding encoding = flags.GetOr("encoding", "range") == "equality"
                          ? Encoding::kEquality
                          : Encoding::kRange;
  BaseSequence base;
  if (auto base_flag = flags.Get("base")) {
    if (!ParseBase(*base_flag, &base)) return Fail("bad --base");
    if (!base.IsWellDefinedFor(map.cardinality())) {
      return Fail("--base capacity " + std::to_string(base.capacity()) +
                  " < attribute cardinality " +
                  std::to_string(map.cardinality()));
    }
  } else if (auto budget = flags.GetInt("budget")) {
    ConstrainedResult r = TimeOptHeur(map.cardinality(), *budget);
    if (!r.feasible) return Fail("budget too small for this cardinality");
    base = r.design.base;
  } else if (map.cardinality() >= 4) {
    base = KneeBase(map.cardinality());
  } else {
    base = BaseSequence::SingleComponent(map.cardinality());
  }

  std::string scheme_name = flags.GetOr("scheme", "bs");
  StorageScheme scheme = StorageScheme::kBitmapLevel;
  if (scheme_name == "cs") scheme = StorageScheme::kComponentLevel;
  else if (scheme_name == "is") scheme = StorageScheme::kIndexLevel;
  else if (scheme_name != "bs") return Fail("bad --scheme");

  const Codec* codec = CodecByName(flags.GetOr("codec", "none"));
  if (codec == nullptr) return Fail("unknown --codec");

  RowOrder sort = RowOrder::kNone;
  if (auto sort_flag = flags.Get("sort")) {
    if (!ParseRowOrder(*sort_flag, &sort)) {
      return Fail("--sort must be none, lex, or gray");
    }
  }
  std::vector<uint32_t> perm;
  if (sort != RowOrder::kNone) {
    perm = ComputeRowOrder(ranks, map.cardinality(), base, sort);
  }
  BitmapIndex index = BitmapIndex::Build(
      perm.empty() ? ranks : ApplyPermutation(ranks, perm), map.cardinality(),
      base, encoding);
  std::unique_ptr<StoredIndex> stored;
  s = StoredIndex::Write(index, *dir, scheme, *codec, &stored, {}, perm, sort);
  if (!s.ok()) return Fail(s.ToString());
  s = WriteValueMap(*dir, map);
  if (!s.ok()) return Fail(s.ToString());

  if (sort != RowOrder::kNone) {
    std::printf("rows %s-sorted before build (queries still return original "
                "row ids)\n",
                std::string(ToString(sort)).c_str());
  }
  std::printf("built %s index %s over %zu rows (C=%u%s), scheme %s, codec "
              "%s\n  %lld bitmaps, %lld bytes on disk (%.1f%% of raw), "
              "expected %.2f scans/query\n",
              encoding == Encoding::kRange ? "range" : "equality",
              base.ToString().c_str(), ranks.size(), map.cardinality(),
              column.name.empty() ? "" : (", column '" + column.name + "'").c_str(),
              std::string(ToString(scheme)).c_str(),
              std::string(codec->name()).c_str(),
              static_cast<long long>(index.TotalStoredBitmaps()),
              static_cast<long long>(stored->stored_bytes()),
              100.0 * static_cast<double>(stored->stored_bytes()) /
                  static_cast<double>(stored->uncompressed_bytes()),
              AnalyticTime(base, encoding));
  return 0;
}

int CmdInfo(const Flags& flags) {
  auto dir = flags.Get("dir");
  if (!dir) return Usage();
  std::unique_ptr<MutableStoredIndex> index;
  Status s = MutableStoredIndex::Open(*dir, &index);
  if (!s.ok()) return Fail(s.ToString());
  std::shared_ptr<const StoredIndex> stored = index->base();
  ValueMap map;
  bool have_map = ReadValueMap(*dir, &map).ok();

  std::printf("records:       %zu\n", index->num_records());
  std::printf("generation:    %u\n", index->generation());
  if (index->has_pending()) {
    std::printf("pending:       %zu appended row(s) in the append log, %zu "
                "tombstoned (compact to fold)\n",
                index->num_delta_rows(), index->num_tombstones());
  }
  std::printf("cardinality:   %u\n", stored->cardinality());
  std::printf("encoding:      %s\n",
              std::string(ToString(stored->encoding())).c_str());
  std::printf("base:          %s (%d components)\n",
              stored->base().ToString().c_str(),
              stored->base().num_components());
  std::printf("scheme/codec:  %s / %s\n",
              std::string(ToString(stored->scheme())).c_str(),
              std::string(stored->codec().name()).c_str());
  if (stored->row_order_kind() != RowOrder::kNone) {
    std::printf("row order:     %s-sorted (%zu-row permutation sidecar; "
                "results remapped to original ids)\n",
                std::string(ToString(stored->row_order_kind())).c_str(),
                stored->row_order().size());
  } else {
    std::printf("row order:     insertion (unsorted)\n");
  }
  std::printf("integrity:     verified (v2 manifest + CRC32C)\n");
  std::printf("bitmaps:       %lld\n",
              static_cast<long long>(
                  SpaceInBitmaps(stored->base(), stored->encoding())));
  std::printf("bytes:         %lld stored / %lld raw\n",
              static_cast<long long>(stored->stored_bytes()),
              static_cast<long long>(stored->uncompressed_bytes()));
  std::printf("expected scans:%8.3f per query\n",
              AnalyticTime(stored->base(), stored->encoding()));
  if (have_map) {
    std::printf("value domain:  [%lld, %lld]\n",
                static_cast<long long>(map.ValueOf(0)),
                static_cast<long long>(map.ValueOf(map.cardinality() - 1)));
  }
  return 0;
}

int CmdQuery(const Flags& flags) {
  auto dir = flags.Get("dir");
  auto pred_text = flags.Get("pred");
  if (!dir || !pred_text) return Usage();
  if (flags.Has("threads")) return ThreadsUsage();
  int64_t limit = flags.GetInt("limit").value_or(10);
  auto trace_out = flags.Get("trace-out");
  auto flame_out = flags.Get("flame-out");

  // The mutable view: pending appends/deletes are merged into the
  // foundset exactly as a rebuilt index would report them.
  std::unique_ptr<MutableStoredIndex> stored;
  Status s = MutableStoredIndex::Open(*dir, &stored);
  if (!s.ok()) return Fail(s.ToString());
  ValueMap map;
  s = ReadValueMap(*dir, &map);
  if (!s.ok()) return Fail(s.ToString());

  ParsedPredicate parsed;
  s = ParsePredicate(*pred_text, &parsed);
  if (!s.ok()) return Fail(s.ToString());

  CompareOp rank_op;
  int64_t rank_v;
  TranslateRawPredicate(map, parsed.op, parsed.value, &rank_op, &rank_v);

  if (trace_out) obs::Tracer::Global().Enable();
  if (flame_out) obs::Profiler::Global().Enable();
  EvalStats stats;
  double decompress_seconds = 0;
  ExecOptions exec;
  if (!ParseEngineFlag(flags, &exec.engine)) return Fail(kBadEngine);
  Status eval_status;
  Bitvector found = stored->Evaluate(EvalAlgorithm::kAuto, rank_op, rank_v,
                                     &stats, &decompress_seconds, &eval_status,
                                     &exec);
  if (!eval_status.ok()) return Fail(eval_status.ToString());
  if (trace_out) {
    obs::Tracer::Global().Disable();
    if (!obs::Tracer::Global().WriteChromeJson(*trace_out)) {
      return Fail("cannot write trace to " + *trace_out);
    }
  }
  if (flame_out) {
    obs::QueryProfile profile = obs::CaptureProfile();
    obs::Profiler::Global().Disable();
    obs::ObserveQueryProfile(profile);
    if (!WriteTextFile(*flame_out, profile.ToCollapsed())) {
      return Fail("cannot write flamegraph stacks to " + *flame_out);
    }
  }

  std::printf("A %s %lld: %zu of %zu records  (%lld bitmap scans, %lld "
              "bytes read, %.2fms decompress)\n",
              std::string(ToString(parsed.op)).c_str(),
              static_cast<long long>(parsed.value), found.Count(),
              stored->num_records(),
              static_cast<long long>(stats.bitmap_scans),
              static_cast<long long>(stats.bytes_read),
              1000 * decompress_seconds);
  if (limit > 0 && found.Any()) {
    std::printf("first rows:");
    int64_t shown = 0;
    for (size_t r = found.NextSetBit(0);
         r < found.size() && shown < limit;
         r = found.NextSetBit(r + 1), ++shown) {
      std::printf(" %zu", r);
    }
    std::printf("%s\n",
                static_cast<int64_t>(found.Count()) > limit ? " ..." : "");
  }
  if (flags.Has("stats")) {
    std::printf("-- metrics --\n%s",
                obs::MetricsRegistry::Global().Snapshot().ToText().c_str());
  }
  if (trace_out) {
    std::printf("trace: %zu events -> %s (open in chrome://tracing)\n",
                obs::Tracer::Global().size(), trace_out->c_str());
  }
  if (flame_out) {
    std::printf("flamegraph stacks: %s (feed to flamegraph.pl)\n",
                flame_out->c_str());
  }
  return 0;
}

// EXPLAIN-style dump for a single-attribute predicate over a stored index:
// the parsed and rank-translated predicate, the index design, the model's
// per-query prediction, the byte estimate for the storage scheme, then the
// executed actuals with the cost-model audit verdict.
int CmdExplain(const Flags& flags) {
  auto dir = flags.Get("dir");
  auto pred_text = flags.Get("pred");
  if (!dir || !pred_text) return Usage();
  if (flags.Has("threads")) return ThreadsUsage();

  std::unique_ptr<StoredIndex> stored;
  Status s = StoredIndex::Open(*dir, &stored);
  if (!s.ok()) return Fail(s.ToString());
  ValueMap map;
  s = ReadValueMap(*dir, &map);
  if (!s.ok()) return Fail(s.ToString());

  ParsedPredicate parsed;
  s = ParsePredicate(*pred_text, &parsed);
  if (!s.ok()) return Fail(s.ToString());
  CompareOp rank_op;
  int64_t rank_v;
  TranslateRawPredicate(map, parsed.op, parsed.value, &rank_op, &rank_v);

  EvalAlgorithm algorithm =
      ResolveAlgorithm(stored->encoding(), EvalAlgorithm::kAuto);
  EvalStats predicted =
      obs::PredictStats(stored->base(), stored->cardinality(),
                        stored->encoding(), algorithm, rank_op, rank_v);

  // Byte estimate along the scheme's access path: BS reads one file per
  // scan (mean stored-bitmap size); CS/IS read every file of the index.
  int64_t num_bitmaps = SpaceInBitmaps(stored->base(), stored->encoding());
  double est_bytes =
      stored->scheme() == StorageScheme::kBitmapLevel
          ? static_cast<double>(predicted.bitmap_scans) *
                static_cast<double>(stored->stored_bytes()) /
                static_cast<double>(num_bitmaps)
          : static_cast<double>(stored->stored_bytes());

  std::printf("predicate:       A %s %lld  (rank form: A %s %lld)\n",
              std::string(ToString(parsed.op)).c_str(),
              static_cast<long long>(parsed.value),
              std::string(ToString(rank_op)).c_str(),
              static_cast<long long>(rank_v));
  std::printf("index:           %s %s, scheme %s, codec %s, C=%u, N=%zu\n",
              std::string(ToString(stored->encoding())).c_str(),
              stored->base().ToString().c_str(),
              std::string(ToString(stored->scheme())).c_str(),
              std::string(stored->codec().name()).c_str(),
              stored->cardinality(), stored->num_records());
  std::printf("algorithm:       %s\n",
              std::string(ToString(algorithm)).c_str());
  std::printf("model:           %lld scans, %lld ops (AND %lld, OR %lld, "
              "XOR %lld, NOT %lld)\n",
              static_cast<long long>(predicted.bitmap_scans),
              static_cast<long long>(predicted.TotalOps()),
              static_cast<long long>(predicted.and_ops),
              static_cast<long long>(predicted.or_ops),
              static_cast<long long>(predicted.xor_ops),
              static_cast<long long>(predicted.not_ops));
  std::printf("est. bytes:      %.0f\n", est_bytes);

  EvalStats measured;
  double decompress_seconds = 0;
  ExecOptions exec;
  if (!ParseEngineFlag(flags, &exec.engine)) return Fail(kBadEngine);
  const bool analyze = flags.Has("analyze");
  auto flame_out = flags.Get("flame-out");
  if (analyze || flame_out) obs::Profiler::Global().Enable();
  Status eval_status;
  Bitvector found = stored->Evaluate(algorithm, rank_op, rank_v, &measured,
                                     &decompress_seconds, &eval_status,
                                     &exec);
  std::optional<obs::QueryProfile> profile;
  if (analyze || flame_out) {
    profile = obs::CaptureProfile();
    obs::Profiler::Global().Disable();
    obs::ObserveQueryProfile(*profile);
  }
  if (!eval_status.ok()) return Fail(eval_status.ToString());
  obs::QueryAudit audit =
      obs::AuditQuery(stored->base(), stored->cardinality(),
                      stored->encoding(), algorithm, rank_op, rank_v, measured);
  std::printf("actual:          %lld scans, %lld ops, %lld bytes read, "
              "%.2fms decompress, %zu rows\n",
              static_cast<long long>(measured.bitmap_scans),
              static_cast<long long>(measured.TotalOps()),
              static_cast<long long>(measured.bytes_read),
              1000 * decompress_seconds, found.Count());
  std::printf("audit:           %s (scan drift %+lld, op drift %+lld)\n",
              audit.ok() ? "OK — measured matches the cost model"
                         : "DRIFT — measured diverges from the cost model",
              static_cast<long long>(audit.scan_drift()),
              static_cast<long long>(audit.op_drift()));
  if (analyze) {
    std::printf("-- analyze --\n%s", profile->ToText().c_str());
  }
  if (flame_out) {
    if (!WriteTextFile(*flame_out, profile->ToCollapsed())) {
      return Fail("cannot write flamegraph stacks to " + *flame_out);
    }
    std::printf("flamegraph stacks: %s (feed to flamegraph.pl)\n",
                flame_out->c_str());
  }
  return audit.ok() ? 0 : 3;
}

void PrintScrubReport(const format::ScrubReport& report) {
  std::printf("manifest:  %s\n", report.manifest_ok
                                     ? "present, self-checksum OK"
                                     : "MISSING or CORRUPT");
  for (const format::FileCheck& f : report.files) {
    std::printf("  %-10s %-16s %s\n", format::ToString(f.state),
                f.name.c_str(), f.detail.c_str());
  }
}

// Re-reads every file of the index and checks it against the manifest
// (size + whole-file CRC32C) and the per-block V2 checksums.
int CmdVerify(const Flags& flags) {
  auto dir = flags.Get("dir");
  if (!dir) return Usage();
  format::ScrubReport report;
  Status s = format::ScrubIndexDir(*Env::Default(), *dir, &report);
  PrintScrubReport(report);
  if (!s.ok()) return Fail(s.ToString());
  if (!report.clean()) {
    std::printf("verify: FAILED (%zu files checked)\n", report.files.size());
    return 1;
  }
  std::printf("verify: OK (%zu files checked)\n", report.files.size());
  return 0;
}

// Self-test of the checksum layer: re-runs verification through a
// fault-injecting env that corrupts reads of the index's own files
// (deterministically from SEED; nothing on disk is modified) and confirms
// every injected corruption is detected.
int CmdScrub(const Flags& flags) {
  auto dir = flags.Get("dir");
  auto seed = flags.GetInt("inject");
  if (!dir || !seed) return Usage();

  std::vector<std::string> names;
  Status s = Env::Default()->ListDir(*dir, &names);
  if (!s.ok()) return Fail(s.ToString());
  std::vector<std::string> targets;
  for (const std::string& name : names) {
    // Bitmap blobs, the tombstone sidecar, and the row-order permutation
    // sidecar: all are V2 blobs whose corruption must always be detected.
    // The append log is excluded — damage to its unsynced tail is
    // *recoverable* by design, so "was it detected" is the wrong question
    // for it (scrub still reports its state via verify's ScrubIndexDir
    // pass).
    if ((name.size() > 3 && name.compare(name.size() - 3, 3, ".bm") == 0) ||
        (name.size() > 5 &&
         name.compare(name.size() - 5, 5, ".tomb") == 0) ||
        (name.size() > 5 &&
         name.compare(name.size() - 5, 5, ".perm") == 0)) {
      targets.push_back(name);
    }
  }
  if (targets.empty()) return Fail("no .bm files in " + *dir);

  // SplitMix64 over the seed: same seed, same faults.
  uint64_t state = static_cast<uint64_t>(*seed) + 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  FaultPlan plan;
  int n = 1 + static_cast<int>(next() % 3);
  for (int i = 0; i < n; ++i) {
    FaultSpec spec;
    spec.kind = next() % 2 ? FaultSpec::Kind::kBitFlip
                           : FaultSpec::Kind::kTruncate;
    spec.path_substring = targets[next() % targets.size()];
    // Wrap the offset to the target's real size so a truncate always
    // shortens the file (past-EOF truncation would be a counted no-op).
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(
        std::filesystem::path(*dir) / spec.path_substring, ec);
    if (ec || size == 0) size = 1;
    spec.offset = next() % size;
    spec.bit = static_cast<int>(next() % 8);
    std::printf("injecting: %s %s offset=%llu bit=%d\n",
                spec.kind == FaultSpec::Kind::kBitFlip ? "bitflip"
                                                       : "truncate",
                spec.path_substring.c_str(),
                static_cast<unsigned long long>(spec.offset), spec.bit);
    plan.faults.push_back(std::move(spec));
  }

  FaultInjectingEnv env(Env::Default(), std::move(plan));
  format::ScrubReport report;
  s = format::ScrubIndexDir(env, *dir, &report);
  PrintScrubReport(report);
  if (!s.ok()) return Fail(s.ToString());
  if (env.injected_corruptions() > 0 && report.clean()) {
    std::printf("scrub: UNDETECTED — %lld injected corruptions passed "
                "verification\n",
                static_cast<long long>(env.injected_corruptions()));
    return 1;
  }
  std::printf("scrub: OK — %lld injected corruptions, all detected\n",
              static_cast<long long>(env.injected_corruptions()));
  return 0;
}

// Parses a comma-separated list of raw values ("null" allowed) into value
// ranks via the directory's value map.  Appends cannot grow the value
// domain, so a constant absent from the map is a typed error.
Status ParseAppendValues(const ValueMap& map, const std::string& text,
                         std::vector<uint32_t>* ranks) {
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (part.empty()) continue;
    if (part == "null") {
      ranks->push_back(kNullValue);
      continue;
    }
    int64_t raw = std::atoll(part.c_str());
    int64_t rank = map.FloorRankOf(raw);
    if (rank < 0 || map.ValueOf(static_cast<uint32_t>(rank)) != raw) {
      return Status::InvalidArgument(
          "value " + part +
          " is not in the indexed domain (appends cannot grow the value "
          "map)");
    }
    ranks->push_back(static_cast<uint32_t>(rank));
  }
  if (ranks->empty()) {
    return Status::InvalidArgument("--values names no rows");
  }
  return Status::OK();
}

// Appends rows through the crash-safe append log (durable before the
// command returns; a crash mid-append is repaired at the next open).
int CmdAppend(const Flags& flags) {
  auto dir = flags.Get("dir");
  auto values_flag = flags.Get("values");
  if (!dir || !values_flag) return Usage();
  std::unique_ptr<MutableStoredIndex> index;
  Status s = MutableStoredIndex::Open(*dir, &index);
  if (!s.ok()) return Fail(s.ToString());
  ValueMap map;
  s = ReadValueMap(*dir, &map);
  if (!s.ok()) return Fail(s.ToString());
  std::vector<uint32_t> ranks;
  s = ParseAppendValues(map, *values_flag, &ranks);
  if (!s.ok()) return Fail(s.ToString());
  s = index->Append(ranks);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("appended %zu row(s): %zu records total, %zu pending in the "
              "g%u append log\n",
              ranks.size(), index->num_records(), index->num_delta_rows(),
              index->generation());
  return 0;
}

// Tombstones rows by id (--rows "0,5,7") or by predicate (--pred "<= 24",
// deleting the predicate's current foundset).  Durable (atomic tombstone
// replace) before the command returns.
int CmdDelete(const Flags& flags) {
  auto dir = flags.Get("dir");
  auto rows_flag = flags.Get("rows");
  auto pred_text = flags.Get("pred");
  if (!dir || (!rows_flag && !pred_text)) return Usage();
  if (rows_flag && pred_text) return Fail("give --rows or --pred, not both");
  std::unique_ptr<MutableStoredIndex> index;
  Status s = MutableStoredIndex::Open(*dir, &index);
  if (!s.ok()) return Fail(s.ToString());

  std::vector<uint32_t> rows;
  if (rows_flag) {
    std::stringstream ss(*rows_flag);
    std::string part;
    while (std::getline(ss, part, ',')) {
      if (part.empty()) continue;
      int64_t r = std::atoll(part.c_str());
      if (r < 0 || static_cast<uint64_t>(r) >= index->num_records()) {
        return Fail("row " + part + " outside [0, " +
                    std::to_string(index->num_records()) + ")");
      }
      rows.push_back(static_cast<uint32_t>(r));
    }
  } else {
    ValueMap map;
    s = ReadValueMap(*dir, &map);
    if (!s.ok()) return Fail(s.ToString());
    ParsedPredicate parsed;
    s = ParsePredicate(*pred_text, &parsed);
    if (!s.ok()) return Fail(s.ToString());
    CompareOp rank_op;
    int64_t rank_v;
    TranslateRawPredicate(map, parsed.op, parsed.value, &rank_op, &rank_v);
    Status eval_status;
    Bitvector found = index->Evaluate(EvalAlgorithm::kAuto, rank_op, rank_v,
                                      nullptr, nullptr, &eval_status);
    if (!eval_status.ok()) return Fail(eval_status.ToString());
    found.ForEachSetBit(
        [&rows](size_t r) { rows.push_back(static_cast<uint32_t>(r)); });
  }
  if (rows.empty()) {
    std::printf("nothing to delete\n");
    return 0;
  }
  const size_t before = index->num_tombstones();
  s = index->Delete(rows);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("deleted %zu row(s): %zu of %zu records tombstoned\n",
              index->num_tombstones() - before, index->num_tombstones(),
              index->num_records());
  return 0;
}

// Folds the append log and tombstones into fresh generation-(G+1) blobs.
// The manifest rename is the commit point: a crash anywhere leaves the
// directory opening as exactly the old or the new generation.  With
// --resort (bare, or --resort lex|gray) the rewrite also re-sorts the
// surviving rows for compression, defaulting to the base index's existing
// order kind (lex for a previously unsorted index).
int CmdCompact(const Flags& flags) {
  auto dir = flags.Get("dir");
  if (!dir) return Usage();
  bool resort = false;
  RowOrder resort_order = RowOrder::kNone;
  if (auto resort_flag = flags.Get("resort")) {
    resort = true;
    if (*resort_flag != "1" &&
        (!ParseRowOrder(*resort_flag, &resort_order) ||
         resort_order == RowOrder::kNone)) {
      return Fail("--resort takes no value, lex, or gray");
    }
  }
  std::unique_ptr<MutableStoredIndex> index;
  Status s = MutableStoredIndex::Open(*dir, &index);
  if (!s.ok()) return Fail(s.ToString());
  if (!index->has_pending() && !resort) {
    std::printf("nothing pending; index stays at generation %u\n",
                index->generation());
    return 0;
  }
  const size_t delta_rows = index->num_delta_rows();
  const size_t tombstones = index->num_tombstones();
  s = index->Compact(resort, resort_order);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("compacted %zu appended + %zu deleted row(s) into generation "
              "%u (%zu records%s)\n",
              delta_rows, tombstones, index->generation(),
              index->num_records(), resort ? ", re-sorted" : "");
  return 0;
}

int CmdAdvise(const Flags& flags) {
  auto c_flag = flags.GetInt("cardinality");
  if (!c_flag || *c_flag < 4) return Usage();
  uint32_t c = static_cast<uint32_t>(*c_flag);
  std::printf("%-28s %-22s %8s %8s\n", "design", "base", "bitmaps", "scans");
  auto row = [&](const char* name, const BaseSequence& base) {
    std::printf("%-28s %-22s %8lld %8.3f\n", name, base.ToString().c_str(),
                static_cast<long long>(SpaceInBitmaps(base, Encoding::kRange)),
                AnalyticTime(base, Encoding::kRange));
  };
  row("time-optimal", TimeOptimalBase(c, 1));
  row("knee (Theorem 7.1)", KneeBase(c));
  row("space-optimal", SpaceOptimalBase(c, MaxComponents(c)));
  if (auto budget = flags.GetInt("budget")) {
    ConstrainedResult r = TimeOptHeur(c, *budget);
    if (r.feasible) {
      row("budget-constrained (heur)", r.design.base);
    } else {
      std::printf("budget %lld is infeasible (minimum %d bitmaps)\n",
                  static_cast<long long>(*budget), MaxComponents(c));
    }
  }
  return 0;
}

double GetDouble(const Flags& flags, const std::string& key, double fallback) {
  auto v = flags.Get(key);
  return v ? std::atof(v->c_str()) : fallback;
}

// Exact percentile (nearest-rank) over a copy of `values`.
int64_t Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

// Tally of one replayed trace (serve and bench-serve share it).
struct ReplayOutcome {
  size_t ok = 0;
  size_t shed = 0;
  size_t deadline_missed = 0;
  size_t failed = 0;
  uint64_t rows_found = 0;
  int64_t shared_hits = 0;
  std::vector<int64_t> latencies_ns;  // completed queries only
  double wall_seconds = 0;
};

// Feeds `queries` through `service` in batches of `batch_size`.  With
// `cold_batches` the operand cache is cleared before every batch, so each
// batch pays the full fetch cost (the cold-cache arms of bench-serve).
ReplayOutcome ReplayTrace(serve::QueryService& service,
                          const std::vector<serve::ServeQuery>& queries,
                          size_t batch_size, bool cold_batches = false) {
  ReplayOutcome outcome;
  auto start = std::chrono::steady_clock::now();
  for (size_t begin = 0; begin < queries.size(); begin += batch_size) {
    if (cold_batches) service.cache().Clear();
    size_t end = std::min(begin + batch_size, queries.size());
    std::vector<serve::ServeQuery> batch(queries.begin() + begin,
                                         queries.begin() + end);
    for (serve::ServeResult& r : service.RunBatch(batch)) {
      switch (r.status.code()) {
        case Status::Code::kOk:
          ++outcome.ok;
          outcome.rows_found += r.row_count;
          outcome.latencies_ns.push_back(r.latency_ns);
          break;
        case Status::Code::kResourceExhausted:
          ++outcome.shed;
          break;
        case Status::Code::kDeadlineExceeded:
          ++outcome.deadline_missed;
          break;
        default:
          ++outcome.failed;
          break;
      }
      outcome.shared_hits += r.shared_hits;
    }
  }
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return outcome;
}

// Serves a query trace (raw-domain constants) against one or more opened
// index directories, translating each constant through the column's value
// map, and reports latency percentiles, QPS, and the shared-fetch hit rate.
int CmdServe(const Flags& flags) {
  auto dirs_flag = flags.Get("dirs");
  if (!dirs_flag) return Usage();
  std::vector<std::string> dirs;
  {
    std::stringstream ss(*dirs_flag);
    std::string part;
    while (std::getline(ss, part, ',')) {
      if (!part.empty()) dirs.push_back(part);
    }
  }
  if (dirs.empty()) return Fail("--dirs names no directories");

  serve::ServeOptions options;
  options.num_threads = static_cast<int>(flags.GetInt("threads").value_or(4));
  options.max_pending =
      static_cast<size_t>(flags.GetInt("queue").value_or(256));
  options.default_deadline_ns =
      flags.GetInt("deadline-ms").value_or(0) * 1'000'000;
  options.share_operands = !flags.Has("no-share");
  if (!ParseEngineFlag(flags, &options.engine)) {
    return Fail(kBadEngine);
  }
  const size_t batch_size = static_cast<size_t>(
      flags.GetInt("batch").value_or(
          static_cast<int64_t>(options.max_pending)));

  std::vector<std::shared_ptr<const StoredIndex>> indexes;
  std::vector<ValueMap> maps;
  serve::QueryService service(options);
  for (const std::string& dir : dirs) {
    // Open through the mutation layer so recovery runs (torn append-log
    // tails repaired, orphan generations collected), then require a
    // compacted index: the serve fast paths read base blobs directly.
    std::unique_ptr<MutableStoredIndex> opened;
    Status s = MutableStoredIndex::Open(dir, &opened);
    if (!s.ok()) return Fail(dir + ": " + s.ToString());
    if (opened->has_pending()) {
      return Fail(dir + ": has " + std::to_string(opened->num_delta_rows()) +
                  " pending appended row(s) and " +
                  std::to_string(opened->num_tombstones()) +
                  " tombstone(s); run `bixctl compact --dir " + dir +
                  "` before serving");
    }
    std::shared_ptr<const StoredIndex> stored = opened->base();
    ValueMap map;
    s = ReadValueMap(dir, &map);
    if (!s.ok()) return Fail(dir + ": " + s.ToString());
    service.AddColumn(stored.get());
    indexes.push_back(std::move(stored));
    maps.push_back(std::move(map));
  }

  std::string trace_text;
  if (auto trace_file = flags.Get("trace")) {
    std::ifstream f(*trace_file);
    if (!f) return Fail("cannot open trace " + *trace_file);
    std::stringstream buf;
    buf << f.rdbuf();
    trace_text = buf.str();
  } else {
    std::stringstream buf;
    buf << std::cin.rdbuf();
    trace_text = buf.str();
  }
  std::vector<TraceQuery> trace;
  Status s = ParseTrace(trace_text, &trace);
  if (!s.ok()) return Fail(s.ToString());
  if (trace.empty()) return Fail("trace has no queries");

  std::vector<serve::ServeQuery> queries;
  queries.reserve(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceQuery& t = trace[i];
    if (t.column >= maps.size()) {
      return Fail("trace query " + std::to_string(i + 1) + " names column " +
                  std::to_string(t.column) + " but only " +
                  std::to_string(maps.size()) + " dirs were given");
    }
    serve::ServeQuery q;
    q.id = i;
    q.column = t.column;
    q.deadline_ns = t.deadline_ns;  // 0 falls back to --deadline-ms
    TranslateRawPredicate(maps[t.column], t.op, t.v, &q.op, &q.value);
    queries.push_back(q);
  }

  auto& hits_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.shared_fetch_hits");
  auto& misses_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.shared_fetch_misses");
  const int64_t hits0 = hits_counter.value();
  const int64_t misses0 = misses_counter.value();

  ReplayOutcome outcome = ReplayTrace(service, queries, batch_size);

  const int64_t hits = hits_counter.value() - hits0;
  const int64_t misses = misses_counter.value() - misses0;
  const int64_t fetches = hits + misses;
  std::printf("served %zu queries over %zu columns (%d threads, %s, "
              "sharing %s)\n",
              queries.size(), dirs.size(), options.num_threads,
              std::string(ToString(options.engine)).c_str(),
              options.share_operands ? "on" : "off");
  std::printf("  ok %zu, shed %zu, deadline-missed %zu, failed %zu; "
              "%llu rows found\n",
              outcome.ok, outcome.shed, outcome.deadline_missed,
              outcome.failed,
              static_cast<unsigned long long>(outcome.rows_found));
  std::printf("  wall %.3fs, %.0f qps; latency p50 %.2fms p95 %.2fms "
              "p99 %.2fms\n",
              outcome.wall_seconds,
              static_cast<double>(queries.size()) / outcome.wall_seconds,
              Percentile(outcome.latencies_ns, 0.50) / 1e6,
              Percentile(outcome.latencies_ns, 0.95) / 1e6,
              Percentile(outcome.latencies_ns, 0.99) / 1e6);
  if (fetches > 0) {
    std::printf("  shared fetches: %lld of %lld operand accesses (%.1f%% "
                "hit rate)\n",
                static_cast<long long>(hits),
                static_cast<long long>(fetches),
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(fetches));
  }
  return outcome.failed == 0 ? 0 : 1;
}

// Builds synthetic indexes in a temp directory, replays a zipf-skewed
// multi-tenant trace with and without cross-query operand sharing at the
// same thread count, and reports the throughput ratio.
int CmdBenchServe(const Flags& flags) {
  const uint32_t columns =
      static_cast<uint32_t>(flags.GetInt("columns").value_or(4));
  const size_t rows = static_cast<size_t>(flags.GetInt("rows").value_or(
      100000));
  const uint32_t cardinality =
      static_cast<uint32_t>(flags.GetInt("cardinality").value_or(64));
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("queries").value_or(2000));
  const int threads = static_cast<int>(flags.GetInt("threads").value_or(4));
  const size_t batch_size =
      static_cast<size_t>(flags.GetInt("batch").value_or(64));
  const uint64_t seed =
      static_cast<uint64_t>(flags.GetInt("seed").value_or(42));
  const Codec* codec = CodecByName(flags.GetOr("codec", "lz77"));
  if (codec == nullptr) return Fail("unknown --codec");
  EngineKind engine;
  if (!ParseEngineFlag(flags, &engine)) {
    return Fail(kBadEngine);
  }
  if (columns < 1 || rows < 1 || cardinality < 2 || num_queries < 1) {
    return Fail("bad bench-serve dimensions");
  }

  TraceSpec spec;
  spec.num_columns = columns;
  spec.cardinality = cardinality;
  spec.num_queries = num_queries;
  spec.column_skew = GetDouble(flags, "col-skew", 1.1);
  spec.value_skew = GetDouble(flags, "val-skew", 1.3);
  spec.eq_fraction = GetDouble(flags, "eq-fraction", 0.5);
  spec.seed = seed;
  const std::vector<TraceQuery> trace = GenerateMultiTenantTrace(spec);
  // Synthetic columns index ranks 0..C-1 directly, so trace constants are
  // already rank-domain: no value-map translation.
  std::vector<serve::ServeQuery> queries;
  queries.reserve(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    serve::ServeQuery q;
    q.id = i;
    q.column = trace[i].column;
    q.op = trace[i].op;
    q.value = trace[i].v;
    queries.push_back(q);
  }

  const std::filesystem::path tmp =
      std::filesystem::temp_directory_path() /
      ("bix-bench-serve-" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(tmp, ec);
  std::vector<std::unique_ptr<StoredIndex>> indexes;
  for (uint32_t c = 0; c < columns; ++c) {
    std::vector<uint32_t> data = GenerateUniform(rows, cardinality, seed + c);
    BaseSequence base = cardinality >= 4
                            ? KneeBase(cardinality)
                            : BaseSequence::SingleComponent(cardinality);
    BitmapIndex index =
        BitmapIndex::Build(data, cardinality, base, Encoding::kRange);
    std::unique_ptr<StoredIndex> stored;
    Status s = StoredIndex::Write(index, tmp / std::to_string(c),
                                  StorageScheme::kBitmapLevel, *codec,
                                  &stored);
    if (!s.ok()) return Fail(s.ToString());
    indexes.push_back(std::move(stored));
  }

  auto& hits_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.shared_fetch_hits");
  auto& misses_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.shared_fetch_misses");
  auto replay = [&](bool share, bool cold_batches) {
    serve::ServeOptions options;
    options.num_threads = threads;
    options.max_pending = queries.size();  // admission is not under test
    options.share_operands = share;
    options.engine = engine;
    serve::QueryService service(options);
    for (const auto& stored : indexes) service.AddColumn(stored.get());
    return ReplayTrace(service, queries, batch_size, cold_batches);
  };

  // Untimed warmup pass so no timed arm pays first-touch costs (page
  // cache, pool spin-up, codec tables).
  replay(false, false);

  const ReplayOutcome control = replay(false, false);
  const int64_t hits0 = hits_counter.value();
  const int64_t misses0 = misses_counter.value();
  const ReplayOutcome shared = replay(true, false);
  const int64_t hits = hits_counter.value() - hits0;
  const int64_t misses = misses_counter.value() - misses0;
  // Cold-cache arm: the cache is cleared before every batch, so each batch
  // pays the full fetch cost.
  const ReplayOutcome cold = replay(true, true);

  std::filesystem::remove_all(tmp, ec);
  if (control.failed + shared.failed + cold.failed > 0) {
    return Fail("bench-serve queries failed");
  }
  for (const ReplayOutcome* o : {&shared, &cold}) {
    if (control.rows_found != o->rows_found) {
      return Fail("sharing changed results: control found " +
                  std::to_string(control.rows_found) + " rows, another arm " +
                  std::to_string(o->rows_found));
    }
  }

  const double n = static_cast<double>(queries.size());
  const double qps_control = n / control.wall_seconds;
  const double qps_shared = n / shared.wall_seconds;
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0;
  std::printf("bench-serve: %u columns x %zu rows (C=%u, codec %s), %zu "
              "queries, %d threads, batch %zu\n",
              columns, rows, cardinality,
              std::string(codec->name()).c_str(), num_queries, threads,
              batch_size);
  std::printf("  trace skew: column %.2f, value %.2f, eq fraction %.2f, "
              "seed %llu\n",
              spec.column_skew, spec.value_skew, spec.eq_fraction,
              static_cast<unsigned long long>(seed));
  auto arm = [&](const char* name, const ReplayOutcome& o, double qps) {
    std::printf("  %-9s %8.0f qps  wall %6.3fs  p50 %7.2fus  p95 %7.2fus  "
                "p99 %7.2fus\n",
                name, qps, o.wall_seconds,
                Percentile(o.latencies_ns, 0.50) / 1e3,
                Percentile(o.latencies_ns, 0.95) / 1e3,
                Percentile(o.latencies_ns, 0.99) / 1e3);
  };
  arm("no-share", control, qps_control);
  arm("shared", shared, qps_shared);
  const double qps_cold = n / cold.wall_seconds;
  arm("cold", cold, qps_cold);
  std::printf("  shared-fetch hit rate %.1f%% (%lld of %lld); speedup "
              "%.2fx\n",
              100.0 * hit_rate, static_cast<long long>(hits),
              static_cast<long long>(hits + misses),
              qps_shared / qps_control);

  if (auto out = flags.Get("out")) {
    bench::BenchJsonWriter writer;
    writer.SetEngine(std::string(ToString(engine)));
    std::vector<bench::BenchParam> common = {
        {"columns", static_cast<int64_t>(columns)},
        {"rows", rows},
        {"cardinality", static_cast<int64_t>(cardinality)},
        {"queries", num_queries},
        {"col_skew", spec.column_skew},
        {"val_skew", spec.value_skew},
        {"threads", static_cast<int64_t>(threads)},
        {"batch", batch_size},
        {"codec", std::string(codec->name())},
    };
    struct Arm {
      const char* name;
      const ReplayOutcome* o;
      double qps;
    };
    const Arm arms[] = {Arm{"no_share", &control, qps_control},
                        Arm{"shared", &shared, qps_shared},
                        Arm{"cold", &cold, qps_cold}};
    for (const Arm& a : arms) {
      const ReplayOutcome& o = *a.o;
      const double qps = a.qps;
      std::vector<bench::BenchParam> params = common;
      params.emplace_back("arm", a.name);
      writer.Add("bench_serve", params, "wall_ms", o.wall_seconds * 1e3,
                 "ms");
      writer.Add("bench_serve", params, "p50_us",
                 static_cast<double>(Percentile(o.latencies_ns, 0.50)) / 1e3,
                 "us");
      writer.Add("bench_serve", params, "p95_us",
                 static_cast<double>(Percentile(o.latencies_ns, 0.95)) / 1e3,
                 "us");
      writer.Add("bench_serve", params, "qps", qps, "count");
    }
    {
      std::vector<bench::BenchParam> params = common;
      params.emplace_back("arm", "shared");
      writer.Add("bench_serve", params, "hit_rate_pct", 100.0 * hit_rate,
                 "count");
    }
    if (!writer.WriteFile(*out)) return Fail("cannot write " + *out);
    std::printf("  wrote %s\n", out->c_str());
  }
  return 0;
}

// Positional BASE/FRESH paths plus Flags-style options, so it cannot reuse
// the Flags parser directly: positionals are split off first.
int CmdBenchdiff(int argc, char** argv) {
  std::vector<char*> flag_args;
  std::vector<std::string> positional;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--", 0) == 0) {
      flag_args.push_back(argv[i]);
      // `--band 0.2` style: the value travels with its key.
      if (std::string(argv[i]).find('=') == std::string::npos &&
          i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flag_args.push_back(argv[++i]);
      }
    } else {
      positional.push_back(argv[i]);
    }
  }
  Flags flags(static_cast<int>(flag_args.size()), flag_args.data());
  if (!flags.ok() || positional.size() < 2) return Usage();
  if (auto key = flags.UnknownKey({"band", "outlier-frac", "force"})) {
    return UnknownFlagUsage("benchdiff", *key);
  }

  tools::DiffOptions options;
  if (auto band = flags.Get("band")) options.band = std::atof(band->c_str());
  if (options.band <= 0) return Fail("--band must be > 0");
  if (auto of = flags.Get("outlier-frac")) {
    options.outlier_frac = std::atof(of->c_str());
  }
  options.force = flags.Has("force");

  std::string error;
  tools::BenchFile base;
  if (!tools::LoadBenchFile(positional[0], &base, &error)) {
    Fail(error);
    return 2;
  }
  std::vector<tools::BenchFile> fresh_files;
  for (size_t i = 1; i < positional.size(); ++i) {
    tools::BenchFile f;
    if (!tools::LoadBenchFile(positional[i], &f, &error)) {
      Fail(error);
      return 2;
    }
    fresh_files.push_back(std::move(f));
  }
  tools::DiffResult result = tools::DiffBenchFiles(
      base, tools::MergeBenchFiles(fresh_files), options);
  std::fputs(result.report.c_str(), stdout);
  return result.exit_code;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "benchdiff") return CmdBenchdiff(argc - 2, argv + 2);
  Flags flags(argc - 2, argv + 2);
  if (!flags.ok()) return Usage();
  // Each command with the flags it reads; every command also takes
  // --metrics-out.  query and explain list --threads only to refuse it with
  // its own message (ThreadsUsage).
  struct Command {
    const char* name;
    int (*run)(const Flags&);
    std::vector<std::string_view> flags;
  };
  const Command commands[] = {
      {"build", CmdBuild,
       {"csv", "col", "dir", "base", "budget", "encoding", "scheme", "codec",
        "sort"}},
      {"info", CmdInfo, {"dir"}},
      {"query", CmdQuery,
       {"dir", "pred", "limit", "stats", "trace-out", "flame-out", "engine",
        "threads"}},
      {"explain", CmdExplain,
       {"dir", "pred", "analyze", "flame-out", "engine", "threads"}},
      {"append", CmdAppend, {"dir", "values"}},
      {"delete", CmdDelete, {"dir", "rows", "pred"}},
      {"compact", CmdCompact, {"dir", "resort"}},
      {"verify", CmdVerify, {"dir"}},
      {"scrub", CmdScrub, {"dir", "inject"}},
      {"advise", CmdAdvise, {"cardinality", "budget"}},
      {"serve", CmdServe,
       {"dirs", "trace", "threads", "queue", "deadline-ms", "batch",
        "no-share", "engine"}},
      {"bench-serve", CmdBenchServe,
       {"columns", "rows", "cardinality", "queries", "col-skew", "val-skew",
        "eq-fraction", "threads", "batch", "codec", "engine", "seed", "out"}},
  };
  const Command* found = nullptr;
  for (const Command& c : commands) {
    if (command == c.name) found = &c;
  }
  if (found == nullptr) return Usage();
  std::vector<std::string_view> accepted = found->flags;
  accepted.push_back("metrics-out");
  if (auto key = flags.UnknownKey(accepted)) {
    return UnknownFlagUsage(command, *key);
  }
  const int rc = found->run(flags);
  if (auto metrics_out = flags.Get("metrics-out")) {
    std::string text =
        obs::MetricsRegistry::Global().Snapshot().ToPrometheus();
    if (!WriteTextFile(*metrics_out, text)) {
      return Fail("cannot write metrics to " + *metrics_out);
    }
  }
  return rc;
}

}  // namespace
}  // namespace bix::tool

int main(int argc, char** argv) { return bix::tool::Main(argc, argv); }
