// Micro-benchmarks of the bitvector substrate: the logical operations every
// predicate evaluation is built from, popcount, (de)serialization, the
// remap of a sorted index's foundset back to logical row ids, and the
// row-order sort itself.
//
// With BIX_BENCH_JSON=<path> in the environment, results are additionally
// written to <path> in the shared one-row-per-metric schema (bench_json.h);
// scripts/check.sh uses this to produce BENCH_obs.json companions.

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <random>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "bitmap/bitvector.h"
#include "core/bitmap_index.h"
#include "core/row_order.h"

namespace {

bix::Bitvector RandomBitvector(size_t bits, uint64_t seed) {
  std::mt19937_64 rng(seed);
  bix::Bitvector bv(bits);
  for (size_t i = 0; i < bits; i += 64) {
    uint64_t word = rng();
    for (int k = 0; k < 64 && i + static_cast<size_t>(k) < bits; ++k) {
      if ((word >> k) & 1) bv.Set(i + static_cast<size_t>(k));
    }
  }
  return bv;
}

void BM_BitvectorAnd(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  bix::Bitvector a = RandomBitvector(bits, 1);
  bix::Bitvector b = RandomBitvector(bits, 2);
  for (auto _ : state) {
    bix::Bitvector c = a;
    c.AndWith(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bits / 8));
}
BENCHMARK(BM_BitvectorAnd)->Arg(1 << 13)->Arg(1 << 17)->Arg(1 << 21);

void BM_BitvectorOr(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  bix::Bitvector a = RandomBitvector(bits, 1);
  bix::Bitvector b = RandomBitvector(bits, 2);
  for (auto _ : state) {
    bix::Bitvector c = a;
    c.OrWith(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bits / 8));
}
BENCHMARK(BM_BitvectorOr)->Arg(1 << 17);

void BM_BitvectorXorNot(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  bix::Bitvector a = RandomBitvector(bits, 1);
  bix::Bitvector b = RandomBitvector(bits, 2);
  for (auto _ : state) {
    bix::Bitvector c = a;
    c.XorWith(b);
    c.NotInPlace();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BitvectorXorNot)->Arg(1 << 17);

void BM_BitvectorCount(benchmark::State& state) {
  bix::Bitvector a = RandomBitvector(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Count());
  }
}
BENCHMARK(BM_BitvectorCount)->Arg(1 << 17)->Arg(1 << 21);

void BM_RemapToLogical(benchmark::State& state) {
  // A 1M-row foundset at range(0) percent density, remapped through a
  // seeded random permutation (the worst case for the scatter's locality).
  const size_t bits = 1 << 20;
  std::mt19937_64 rng(6);
  std::vector<uint32_t> perm(bits);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  bix::Bitvector physical(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng() % 100 < static_cast<uint64_t>(state.range(0))) physical.Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bix::RemapToLogical(physical, perm));
  }
}
BENCHMARK(BM_RemapToLogical)->Arg(1)->Arg(50)->Arg(90);

void BM_BitvectorToSetBitIndices(benchmark::State& state) {
  // Sparse foundset extraction (RID materialization).
  size_t bits = 1 << 20;
  bix::Bitvector a(bits);
  std::mt19937_64 rng(4);
  for (int i = 0; i < state.range(0); ++i) {
    a.Set(rng() % bits);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.ToSetBitIndices());
  }
}
BENCHMARK(BM_BitvectorToSetBitIndices)->Arg(1000)->Arg(100000);

void BM_BitvectorSerialize(benchmark::State& state) {
  bix::Bitvector a = RandomBitvector(1 << 20, 5);
  for (auto _ : state) {
    auto bytes = a.ToBytes();
    benchmark::DoNotOptimize(bix::Bitvector::FromBytes(bytes, a.size()));
  }
}
BENCHMARK(BM_BitvectorSerialize);

void BM_BitvectorFromBytes(benchmark::State& state) {
  // Deserialization alone: the dense fetch, WAH decode and tombstone load
  // each rebuild a bitvector from its byte image.
  const size_t bits = static_cast<size_t>(state.range(0));
  const std::vector<uint8_t> bytes = RandomBitvector(bits, 7).ToBytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bix::Bitvector::FromBytes(bytes, bits));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_BitvectorFromBytes)->Arg(1 << 17)->Arg(1 << 20);

void BM_ComputeRowOrder(benchmark::State& state) {
  // The resort compaction's sort: 1M rows over C = 2526 (TPC-D's
  // l_shipdate domain) with every 50th row NULL, under a two-component
  // base; range(0) picks lex (0) or Gray (1).
  const size_t rows = 1 << 20;
  const uint32_t c = 2526;
  const bix::RowOrder order =
      state.range(0) == 0 ? bix::RowOrder::kLex : bix::RowOrder::kGray;
  const bix::BaseSequence base = bix::BaseSequence::Uniform(51, c);
  std::mt19937_64 rng(8);
  std::vector<uint32_t> values(rows);
  for (size_t i = 0; i < rows; ++i) {
    values[i] = i % 50 == 0 ? bix::kNullValue : static_cast<uint32_t>(rng() % c);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bix::ComputeRowOrder(values, c, base, order));
  }
}
BENCHMARK(BM_ComputeRowOrder)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ComputeMultiColumnRowOrder(benchmark::State& state) {
  // The sorted multi-column build's sort: 1M rows over TPC-D lineitem's
  // four cardinalities (l_quantity 50, l_discount 11, l_tax 9, l_shipdate
  // 2526), uniform, with every 50th l_tax row NULL; range(0) picks lex (0)
  // or Gray (1).
  const size_t rows = 1 << 20;
  const bix::RowOrder order =
      state.range(0) == 0 ? bix::RowOrder::kLex : bix::RowOrder::kGray;
  const uint32_t cardinalities[] = {50, 11, 9, 2526};
  std::mt19937_64 rng(8);
  std::vector<std::vector<uint32_t>> values(4, std::vector<uint32_t>(rows));
  for (size_t c = 0; c < 4; ++c) {
    for (size_t i = 0; i < rows; ++i) {
      values[c][i] = c == 2 && i % 50 == 0
                         ? bix::kNullValue
                         : static_cast<uint32_t>(rng() % cardinalities[c]);
    }
  }
  std::vector<bix::OrderColumn> columns;
  for (size_t c = 0; c < 4; ++c) columns.push_back({values[c], cardinalities[c]});
  for (auto _ : state) {
    benchmark::DoNotOptimize(bix::ComputeMultiColumnRowOrder(columns, order));
  }
}
BENCHMARK(BM_ComputeMultiColumnRowOrder)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Console reporter that also captures each result as a schema row.  The
// benchmark name's slash-separated arguments become params {"arg0": ...}.
// (Deriving from ConsoleReporter keeps this a display reporter — the
// library insists on --benchmark_out when given a separate file reporter.)
class SchemaJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::vector<bix::bench::BenchParam> params;
      const std::string& args = run.run_name.args;
      size_t start = 0;
      int arg_index = 0;
      while (start < args.size()) {
        size_t end = args.find('/', start);
        if (end == std::string::npos) end = args.size();
        params.emplace_back("arg" + std::to_string(arg_index++),
                            args.substr(start, end - start));
        start = end + 1;
      }
      const char* unit = benchmark::GetTimeUnitString(run.time_unit);
      writer_.Add(run.run_name.function_name, params, "real_time",
                  run.GetAdjustedRealTime(), unit);
      writer_.Add(run.run_name.function_name, params, "cpu_time",
                  run.GetAdjustedCPUTime(), unit);
      auto bps = run.counters.find("bytes_per_second");
      if (bps != run.counters.end()) {
        writer_.Add(run.run_name.function_name, params, "bytes_per_second",
                    bps->second, "bytes/s");
      }
    }
  }

  const bix::bench::BenchJsonWriter& writer() const { return writer_; }

 private:
  bix::bench::BenchJsonWriter writer_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* json_path = std::getenv("BIX_BENCH_JSON");
  if (json_path != nullptr) {
    SchemaJsonReporter rows;
    benchmark::RunSpecifiedBenchmarks(&rows);
    if (!rows.writer().WriteFile(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 1;
    }
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
