// Unit tests of the benchmark's own arithmetic: the percentile rule, the
// chunked summaries, span self time on a hand-built tree, and the
// directory-size accounting behind space_ratio.

#include "bench_lib.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace bixbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileRule, NearestRank) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(NearestRank(v, 0.5), 50);
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank(v, 1.0), 100);
  EXPECT_EQ(NearestRank(v, 0.001), 1);
  EXPECT_EQ(NearestRank(std::vector<double>(), 0.5), 0);
}

TEST(PercentileRule, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(PercentileRule, HighestPercentileWithTenBeyond) {
  // 1000 samples support p99 exactly: rank 990 has 10 samples above it.
  EXPECT_DOUBLE_EQ(SupportedPercentile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedPercentile(100000, 0.99), 0.99);
  // 500 samples: (500 - 10) / 500 = 0.98.
  EXPECT_DOUBLE_EQ(SupportedPercentile(500, 0.99), 0.98);
  // 100 samples: p90.
  EXPECT_DOUBLE_EQ(SupportedPercentile(100, 0.99), 0.90);
  // Too few samples for any tail: the median.
  EXPECT_DOUBLE_EQ(SupportedPercentile(20, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(SupportedPercentile(3, 0.99), 0.5);
}

TEST(PercentileRule, SummaryLeavesTenSamplesBeyondTheTail) {
  for (int n : {25, 100, 500, 999, 1000, 1024, 5000}) {
    const LatencySummary s = Summarize(OneTo(n));
    EXPECT_EQ(s.samples, static_cast<size_t>(n));
    int beyond = 0;
    for (double x : OneTo(n)) beyond += x > s.tail ? 1 : 0;
    EXPECT_GE(beyond, 10) << n;
    EXPECT_LE(s.tail_percentile, 0.99) << n;
    // The rule picks the highest such percentile: one rank higher would
    // leave fewer than ten beyond (unless capped at the 0.99 target).
    if (s.tail_percentile < 0.99) {
      EXPECT_EQ(beyond, 10) << n;
    }
  }
  const LatencySummary shuffled = Summarize({5, 1, 4, 2, 3});
  EXPECT_EQ(shuffled.p50, 3);
  EXPECT_EQ(shuffled.tail, 3);  // five samples: no tail beyond the median
}

TEST(ChunkedSummary, MedianOverChunks) {
  // Three chunks of 4 queries; the middle chunk ran on a slow machine.
  const std::vector<double> latency = {1, 1, 1, 2,  10, 10, 10, 20,
                                       1, 1, 1, 2};
  const std::vector<ChunkEnd> ends = {{4, 5000}, {8, 55000}, {12, 60000}};
  const ChunkedSummary s = SummarizeChunks(latency, ends, 60000);
  EXPECT_EQ(s.chunks, 3u);
  EXPECT_EQ(s.samples, 12u);
  EXPECT_EQ(s.p50, 1);
  // 4 queries per 5 us of timed work in the fast chunks.
  EXPECT_DOUBLE_EQ(s.qps, 4 * 1e9 / 5000.0);
  EXPECT_EQ(s.tail, 1);  // 4-sample chunks report their median
}

TEST(ChunkedSummary, ChunkTimeRunsToItsEndStamp) {
  // Two queries of 1 us per cycle, then 8 us of writes closing the cycle:
  // each chunk's rate counts the writes, and the queries of the unfinished
  // third cycle are left out.
  const std::vector<double> latency = {1, 1, 1, 1, 1, 1, 50};
  const std::vector<ChunkEnd> ends = {{2, 10000}, {4, 20000}, {6, 30000}};
  const ChunkedSummary s = SummarizeChunks(latency, ends, 32000);
  EXPECT_EQ(s.chunks, 3u);
  EXPECT_DOUBLE_EQ(s.qps, 2 * 1e9 / 10000.0);
  EXPECT_EQ(s.p50, 1);
}

TEST(ChunkedSummary, ShortRunIsOneChunk) {
  const std::vector<double> latency = OneTo(1500);
  const std::vector<ChunkEnd> ends = {{1024, 102400}};
  const ChunkedSummary s = SummarizeChunks(latency, ends, 150000);
  EXPECT_EQ(s.chunks, 1u);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 0.99);
  EXPECT_EQ(s.tail, 1485);
  EXPECT_DOUBLE_EQ(s.qps, 1e7);
}

TEST(SpanRecorder, SelfTimeOnHandBuiltTree) {
  // query [0, 100) in "bench"
  //   open   [0, 10)  storage
  //   eval   [10, 80) exec
  //     fetch [20, 40) storage, with decode [30, 40) compress
  //     fetch [50, 60) storage
  //   remap  [85, 95) core
  SpanRecorder rec;
  rec.Begin("query", "bench", 7, 0);
  rec.Begin("storage.open_source", "storage", 0, 0);
  rec.End(10);
  rec.Begin("exec.evaluate", "exec", 0, 10);
  rec.Begin("storage.fetch", "storage", 0, 20);
  rec.AddChild("compress.decode", "compress", 30, 40);
  rec.End(40);
  rec.Begin("storage.fetch", "storage", 0, 50);
  rec.End(60);
  rec.End(80);
  rec.Begin("core.remap", "core", 0, 85);
  rec.End(95);
  rec.End(100);
  EXPECT_FALSE(rec.open());

  const auto& layers = rec.layers();
  EXPECT_EQ(layers.at("bench").self_ns, 100 - 10 - 70 - 10);
  EXPECT_EQ(layers.at("bench").total_ns, 100);
  EXPECT_EQ(layers.at("exec").self_ns, 70 - 20 - 10);
  EXPECT_EQ(layers.at("storage").self_ns, 10 + (20 - 10) + 10);
  EXPECT_EQ(layers.at("storage").count, 3);
  EXPECT_EQ(layers.at("compress").self_ns, 10);
  EXPECT_EQ(layers.at("core").self_ns, 10);
  int64_t self_sum = 0;
  for (const auto& [layer, t] : layers) self_sum += t.self_ns;
  EXPECT_EQ(self_sum, 100);  // self times partition the root interval

  const SpanTotals root = rec.RootTotals("bench");
  EXPECT_EQ(root.self_ns, 10);
  EXPECT_EQ(root.total_ns, 100);
  EXPECT_EQ(rec.RootTotals("exec").count, 0);

  // Per-root sums: both fetches of the one query add up.
  EXPECT_EQ(rec.PerRootNs("storage.fetch"), std::vector<double>{30});
  EXPECT_EQ(rec.PerRootNs("query"), std::vector<double>{100});
  EXPECT_TRUE(rec.PerRootNs("plan.choose").empty());

  // Parent links and query ids.
  ASSERT_EQ(rec.spans().size(), 7u);
  for (const Span& s : rec.spans()) EXPECT_EQ(s.query_id, 7u);
  const Span& decode = rec.spans()[1];
  EXPECT_EQ(decode.name, "compress.decode");
  EXPECT_EQ(rec.spans()[2].name, "storage.fetch");
  EXPECT_EQ(decode.parent, rec.spans()[2].id);
}

TEST(SpanRecorder, CapKeepsTotalsExact) {
  SpanRecorder rec(/*max_kept=*/2);
  for (int i = 0; i < 5; ++i) {
    rec.Begin("probe", "exec", 0, i * 10);
    rec.End(i * 10 + 4);
  }
  EXPECT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.dropped(), 3u);
  EXPECT_EQ(rec.layers().at("exec").total_ns, 20);
  EXPECT_EQ(rec.PerRootNs("probe").size(), 5u);
  const std::string json = rec.ToChromeTrace("{\"k\": 1}");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\":3"), std::string::npos);
}

TEST(DirectoryBytes, CountsEveryFile) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "bixbench_dir_bytes";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "col" / "nested");
  auto write = [](const std::filesystem::path& p, size_t n) {
    std::ofstream(p, std::ios::binary) << std::string(n, 'x');
  };
  write(dir / "col" / "b0.bin", 100);             // bitmap blob
  write(dir / "col" / "roworder.perm", 4000);      // permutation sidecar
  write(dir / "col" / "index.manifest", 7);        // manifest
  write(dir / "col" / "g0.delta", 33);             // append log
  write(dir / "col" / "nested" / "g1.tomb", 11);   // anything deeper
  EXPECT_EQ(DirectoryBytes(dir), 100u + 4000 + 7 + 33 + 11);
  EXPECT_EQ(DirectoryBytes(dir / "missing"), 0u);
  std::filesystem::remove_all(dir);
}

TEST(Fingerprint, DistinguishesBitsAndLength) {
  bix::Bitvector a(1000), b(1000), c(1001);
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
  EXPECT_NE(Fingerprint(a), Fingerprint(c));
  b.Set(999);
  EXPECT_NE(Fingerprint(a), Fingerprint(b));
  a.Set(999);
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
}

TEST(JsonEscape, QuotesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace bixbench
