// Ablation beyond the paper: operating on compressed bitmaps in memory
// (WAH) versus the paper's decompress-then-operate model (dense bitvector
// ops after inflating stored bitmaps).
//
// Part 1 (micro): for each bit density, memory footprint and AND-throughput
// of the dense and WAH forms.  Part 2 (end-to-end): full predicate
// evaluation over a WahCompressedSource under --engine=plain (inflate every
// fetch, dense ops) and --engine=auto (an operand stays compressed iff its
// WAH form is at most 1/32 of its dense form).  Expected shape: compressed
// execution wins on sparse/clustered bitmaps (low-cardinality equality
// bitmaps, sorted relations), loses on dense ~50% bitmaps, and auto tracks
// the better of the two at every density point.
//
// Usage: bench_wah_ablation [--smoke] [OUT.json]
//   --smoke    smaller bitmaps/relation (registered as a ctest smoke)
//   OUT.json   also write every measurement as bench_json.h rows

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <utility>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "core/bitmap_index.h"
#include "core/compressed_source.h"
#include "core/eval.h"
#include "core/row_order.h"
#include "exec/segmented_eval.h"
#include "obs/metrics.h"
#include "workload/generators.h"

using namespace bix;

namespace {

Bitvector RandomDense(size_t bits, double density, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0, 1);
  Bitvector out(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (uni(rng) < density) out.Set(i);
  }
  return out;
}

Bitvector ClusteredDense(size_t bits, double density, size_t run,
                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0, 1);
  Bitvector out(bits);
  for (size_t i = 0; i < bits; i += run) {
    if (uni(rng) < density) {
      for (size_t k = i; k < std::min(i + run, bits); ++k) out.Set(k);
    }
  }
  return out;
}

double MeasureDenseAnd(const Bitvector& a, const Bitvector& b, int reps) {
  auto start = std::chrono::steady_clock::now();
  size_t guard = 0;
  for (int i = 0; i < reps; ++i) {
    Bitvector c = a;
    c.AndWith(b);
    guard += c.words()[0];
  }
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return guard == size_t(-1) ? -1 : 1e6 * s / reps;
}

double MeasureWahAnd(const WahBitvector& a, const WahBitvector& b, int reps) {
  auto start = std::chrono::steady_clock::now();
  size_t guard = 0;
  for (int i = 0; i < reps; ++i) {
    guard += WahBitvector::And(a, b).SizeInBytes();
  }
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return guard == size_t(-1) ? -1 : 1e6 * s / reps;
}

// Count-only forms: WahBitvector::AndCount walks both run streams without
// materializing the result; the dense counterpart is Bitvector::CountAnd.
double MeasureWahAndCount(const WahBitvector& a, const WahBitvector& b,
                          int reps) {
  auto start = std::chrono::steady_clock::now();
  size_t guard = 0;
  for (int i = 0; i < reps; ++i) {
    guard += WahBitvector::AndCount(a, b);
  }
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return guard == size_t(-1) ? -1 : 1e6 * s / reps;
}

double MeasureDenseAndCount(const Bitvector& a, const Bitvector& b, int reps) {
  auto start = std::chrono::steady_clock::now();
  size_t guard = 0;
  for (int i = 0; i < reps; ++i) {
    guard += Bitvector::CountAnd(a, b);
  }
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return guard == size_t(-1) ? -1 : 1e6 * s / reps;
}

// Average microseconds per query for a fixed predicate sweep over `source`
// under one engine (kPlain over a WahCompressedSource is exactly the
// paper's decompress-then-op model: every Fetch inflates).
double MeasureEngine(const BitmapSource& source, EngineKind engine,
                     uint32_t cardinality, int reps, size_t* checksum) {
  const ExecOptions options{.engine = engine};
  const CompareOp ops[] = {CompareOp::kLe, CompareOp::kEq, CompareOp::kGt};
  const int64_t values[] = {static_cast<int64_t>(cardinality) / 10,
                            static_cast<int64_t>(cardinality) / 2,
                            static_cast<int64_t>(cardinality) - 1};
  int queries = 0;
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (CompareOp op : ops) {
      for (int64_t v : values) {
        Bitvector found =
            EvaluatePredicate(source, EvalAlgorithm::kAuto, op, v, options);
        *checksum += found.Count();
        ++queries;
      }
    }
  }
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return 1e6 * s / queries;
}

// Relations whose bitmap densities sweep the WAH win/lose spectrum.
std::vector<uint32_t> MakeColumn(size_t rows, uint32_t cardinality,
                                 bool sorted, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> values(rows);
  for (size_t i = 0; i < rows; ++i) {
    values[i] = static_cast<uint32_t>(rng() % cardinality);
  }
  if (sorted) std::sort(values.begin(), values.end());
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  bench::BenchJsonWriter json;

  const size_t bits = smoke ? (1 << 20) : (4 << 20);
  const int reps = smoke ? 5 : 20;
  std::printf("WAH vs dense bitvector, %zu-bit bitmaps, AND of two "
              "operands%s\n\n", bits, smoke ? "  [smoke]" : "");
  std::printf("%-22s | %12s %12s | %12s %12s | %12s %12s\n", "bitmap shape",
              "dense KB", "WAH KB", "dense us/op", "WAH us/op",
              "dense cnt us", "WAH cnt us");

  struct Shape {
    const char* name;
    double density;
    Bitvector a, b;
  };
  Shape shapes[] = {
      {"uniform 0.01%", 0.0001, RandomDense(bits, 0.0001, 1),
       RandomDense(bits, 0.0001, 2)},
      {"uniform 0.1%", 0.001, RandomDense(bits, 0.001, 3),
       RandomDense(bits, 0.001, 4)},
      {"uniform 2%", 0.02, RandomDense(bits, 0.02, 5),
       RandomDense(bits, 0.02, 6)},
      {"uniform 50%", 0.5, RandomDense(bits, 0.5, 7),
       RandomDense(bits, 0.5, 8)},
      {"clustered 10% r=4096", 0.1, ClusteredDense(bits, 0.1, 4096, 9),
       ClusteredDense(bits, 0.1, 4096, 10)},
  };
  for (Shape& s : shapes) {
    WahBitvector wa = WahBitvector::FromBitvector(s.a);
    WahBitvector wb = WahBitvector::FromBitvector(s.b);
    double dense_us = MeasureDenseAnd(s.a, s.b, reps);
    double wah_us = MeasureWahAnd(wa, wb, reps);
    double dense_cnt_us = MeasureDenseAndCount(s.a, s.b, reps);
    double wah_cnt_us = MeasureWahAndCount(wa, wb, reps);
    double wah_kb =
        static_cast<double>(wa.SizeInBytes() + wb.SizeInBytes()) / 2 / 1024;
    std::printf("%-22s | %12.1f %12.1f | %12.1f %12.1f | %12.1f %12.1f\n",
                s.name, static_cast<double>(bits) / 8 / 1024, wah_kb,
                dense_us, wah_us, dense_cnt_us, wah_cnt_us);
    std::vector<bench::BenchParam> params = {{"shape", s.name},
                                             {"density", s.density},
                                             {"bits", bits}};
    json.Add("wah_ablation_micro", params, "dense_and_us", dense_us, "us");
    json.Add("wah_ablation_micro", params, "wah_and_us", wah_us, "us");
    json.Add("wah_ablation_micro", params, "dense_count_us", dense_cnt_us,
             "us");
    json.Add("wah_ablation_micro", params, "wah_count_us", wah_cnt_us, "us");
    json.Add("wah_ablation_micro", params, "wah_kb", wah_kb, "KB");
  }

  // End-to-end: the same predicate sweep over a WahCompressedSource under
  // each engine.  plain = decompress-then-op, auto = per-operand choice;
  // results are bit-identical (checksummed).
  const size_t rows = smoke ? 200000 : 2000000;
  const int query_reps = smoke ? 3 : 10;
  std::printf("\nend-to-end over WahCompressedSource, %zu rows, equality "
              "encoding, 9-query sweep\n\n", rows);
  std::printf("%-26s | %9s | %12s %12s\n", "relation", "C", "plain us/q",
              "auto us/q");

  struct Relation {
    const char* name;
    uint32_t cardinality;
    bool sorted;
  };
  const Relation relations[] = {
      {"sorted C=100 (runs)", 100, true},
      {"uniform C=100 (1% bits)", 100, false},
      {"uniform C=20 (5% bits)", 20, false},
      {"uniform C=4 (dense bits)", 4, false},
  };
  for (const Relation& rel : relations) {
    std::vector<uint32_t> values =
        MakeColumn(rows, rel.cardinality, rel.sorted, 42);
    BitmapIndex index = BitmapIndex::Build(
        values, rel.cardinality,
        BaseSequence::SingleComponent(rel.cardinality), Encoding::kEquality);
    WahCompressedSource source(index);

    size_t check_plain = 0, check_auto = 0;
    double plain_us = MeasureEngine(source, EngineKind::kPlain,
                                    rel.cardinality, query_reps, &check_plain);
    double auto_us = MeasureEngine(source, EngineKind::kAuto, rel.cardinality,
                                   query_reps, &check_auto);
    if (check_auto != check_plain) {
      std::printf("FAIL: engines disagree on %s\n", rel.name);
      return 1;
    }
    std::printf("%-26s | %9u | %12.1f %12.1f\n", rel.name, rel.cardinality,
                plain_us, auto_us);
    for (auto& [engine, us] : std::vector<std::pair<const char*, double>>{
             {"plain", plain_us}, {"auto", auto_us}}) {
      json.Add("wah_ablation_engine",
               {{"relation", rel.name},
                {"cardinality", static_cast<int64_t>(rel.cardinality)},
                {"rows", rows},
                {"engine", engine}},
               "query_us", us, "us");
    }
  }

  // Row-reordering lanes (core/row_order.h, DESIGN.md §15): the same
  // relation indexed in arrival (shuffled) order versus after a lex / Gray
  // sort.  Sorting multiplies WAH compression (arXiv 0901.3751), and the
  // smaller operands pull the auto engine's per-operand choice (WAH form at
  // most 1/32 of dense) toward compressed execution.  Foundset checksums are
  // order-invariant, so all three arms must agree bit-for-bit on every
  // query's count.
  const size_t sort_rows = smoke ? 100000 : 1000000;
  std::printf("\nrow reordering: shuffled vs sorted builds, %zu rows, "
              "equality encoding, auto engine\n\n", sort_rows);
  std::printf("%-22s %-9s | %10s %7s | %10s %10s | %10s\n", "relation",
              "order", "wah KB", "ratio", "comp ops", "plain ops",
              "auto us/q");

  struct SortLane {
    const char* name;
    uint32_t cardinality;
    bool zipf;
    uint32_t component_base;
  };
  const SortLane sort_lanes[] = {
      {"zipf s=1.2 C=1000", 1000, true, 32},
      {"uniform C=64", 64, false, 8},
  };
  obs::Counter& comp_ops_counter =
      obs::MetricsRegistry::Global().GetCounter("wah_engine.compressed_ops");
  obs::Counter& plain_ops_counter =
      obs::MetricsRegistry::Global().GetCounter("wah_engine.plain_ops");
  for (const SortLane& lane : sort_lanes) {
    std::vector<uint32_t> shuffled =
        lane.zipf ? GenerateZipf(sort_rows, lane.cardinality, 1.2, 77)
                  : GenerateUniform(sort_rows, lane.cardinality, 77);
    BaseSequence base =
        BaseSequence::Uniform(lane.component_base, lane.cardinality);
    struct OrderArm {
      const char* name;
      RowOrder order;
    };
    const OrderArm arms[] = {{"shuffled", RowOrder::kNone},
                             {"lex", RowOrder::kLex},
                             {"gray", RowOrder::kGray}};
    size_t shuffled_bytes = 0, shuffled_checksum = 0;
    for (const OrderArm& arm : arms) {
      std::vector<uint32_t> column = shuffled;
      if (arm.order != RowOrder::kNone) {
        column = ApplyPermutation(
            shuffled,
            ComputeRowOrder(shuffled, lane.cardinality, base, arm.order));
      }
      BitmapIndex index = BitmapIndex::Build(column, lane.cardinality, base,
                                             Encoding::kEquality);
      size_t wah_bytes = 0;
      for (int comp = 0; comp < base.num_components(); ++comp) {
        for (uint32_t slot = 0;
             slot < NumStoredBitmaps(Encoding::kEquality, base.base(comp));
             ++slot) {
          wah_bytes +=
              WahBitvector::FromBitvector(index.Fetch(comp, slot, nullptr))
                  .SizeInBytes();
        }
      }
      if (arm.order == RowOrder::kNone) shuffled_bytes = wah_bytes;
      const double ratio = static_cast<double>(shuffled_bytes) /
                           static_cast<double>(wah_bytes);

      WahCompressedSource source(index);
      const int64_t comp0 = comp_ops_counter.value();
      const int64_t plain0 = plain_ops_counter.value();
      size_t checksum = 0;
      double auto_us = MeasureEngine(source, EngineKind::kAuto,
                                     lane.cardinality, query_reps, &checksum);
      const int64_t compressed_ops = comp_ops_counter.value() - comp0;
      const int64_t plain_ops = plain_ops_counter.value() - plain0;
      if (arm.order == RowOrder::kNone) {
        shuffled_checksum = checksum;
      } else if (checksum != shuffled_checksum) {
        std::printf("FAIL: sorted foundset counts diverge on %s %s\n",
                    lane.name, arm.name);
        return 1;
      }
      std::printf("%-22s %-9s | %10.1f %6.2fx | %10lld %10lld | %10.1f\n",
                  lane.name, arm.name,
                  static_cast<double>(wah_bytes) / 1024, ratio,
                  static_cast<long long>(compressed_ops),
                  static_cast<long long>(plain_ops), auto_us);
      const std::vector<bench::BenchParam> params = {
          {"relation", lane.name},
          {"order", arm.name},
          {"rows", sort_rows},
          {"cardinality", static_cast<int64_t>(lane.cardinality)}};
      json.Add("wah_ablation_roworder", params, "wah_index_kb",
               static_cast<double>(wah_bytes) / 1024, "KB");
      json.Add("wah_ablation_roworder", params, "size_ratio", ratio, "x");
      json.Add("wah_ablation_roworder", params, "query_us", auto_us, "us");
      json.Add("wah_ablation_roworder", params, "compressed_ops",
               static_cast<double>(compressed_ops), "count");
      json.Add("wah_ablation_roworder", params, "plain_ops",
               static_cast<double>(plain_ops), "count");
    }
  }

  std::printf("\nshape check: compressed-domain execution dominates on "
              "sparse/clustered bitmaps,\nloses on dense ~50%% noise, and "
              "--engine=auto tracks the better substrate.\n");
  if (!json_path.empty()) {
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %zu rows -> %s\n", json.size(), json_path.c_str());
  }
  return 0;
}
