// Per-query profiler and histogram-percentile tests.
//
// The load-bearing property is *conservation*: for one profiled query, the
// counters attributed across the span tree must sum exactly to the delta the
// process-wide registry saw — on every engine.  Time conservation is
// structural (inclusive = self + children by construction) so it is not
// asserted against wall clocks.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bitmap_index.h"
#include "core/eval.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "storage/stored_index.h"
#include "workload/generators.h"

namespace bix {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "bix_profile_test_XXXXXX")
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

// ---------------------------------------------------------------------------
// Histogram percentiles

TEST(HistogramPercentileTest, EmptyHistogramIsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.QuantileInterpolated(0.0), 0);
  EXPECT_EQ(h.QuantileInterpolated(0.5), 0);
  EXPECT_EQ(h.QuantileInterpolated(1.0), 0);
}

TEST(HistogramPercentileTest, SingleValueIsExact) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.Observe(1000);
  // 1000 lands in bucket [512, 1024); clamping to [min, max] recovers the
  // exact value no matter where in the bucket interpolation lands.
  EXPECT_EQ(h.QuantileInterpolated(0.0), 1000);
  EXPECT_EQ(h.QuantileInterpolated(0.5), 1000);
  EXPECT_EQ(h.QuantileInterpolated(0.99), 1000);
}

TEST(HistogramPercentileTest, ExactBucketBoundaries) {
  obs::Histogram h;
  h.Observe(1);  // bucket 1 = [1, 1]
  h.Observe(1);
  h.Observe(1);
  h.Observe(16);  // bucket 5 = [16, 31]
  // p50 rank sits among the 1s; a single-valued bucket interpolates to its
  // only admissible value.
  EXPECT_EQ(h.QuantileInterpolated(0.5), 1);
  // The max observation caps the top.
  EXPECT_EQ(h.QuantileInterpolated(1.0), 16);
}

TEST(HistogramPercentileTest, InterpolationBeatsBucketUpperBound) {
  obs::Histogram h;
  // 1000 observations spread across bucket [1024, 2047].
  for (int i = 0; i < 1000; ++i) h.Observe(1024 + i);
  int64_t p50 = h.QuantileInterpolated(0.5);
  // Upper-bound estimate would say 2047; interpolation should land near the
  // middle of the bucket.
  EXPECT_GE(p50, 1024);
  EXPECT_LE(p50, 2047);
  EXPECT_NEAR(static_cast<double>(p50), 1536.0, 100.0);
  EXPECT_EQ(h.Quantile(0.5), 2047);  // legacy semantics unchanged
}

TEST(HistogramPercentileTest, TopBucketsDoNotOverflow) {
  obs::Histogram h;
  h.Observe(INT64_MAX);
  h.Observe(INT64_MAX - 1);
  h.Observe(int64_t{1} << 62);
  int64_t p99 = h.QuantileInterpolated(0.99);
  EXPECT_GE(p99, int64_t{1} << 62);
  EXPECT_LE(p99, INT64_MAX);
  EXPECT_EQ(h.QuantileInterpolated(0.0), int64_t{1} << 62);
}

TEST(HistogramPercentileTest, UniformSpreadIsMonotonic) {
  obs::Histogram h;
  for (int64_t v = 0; v < 10000; ++v) h.Observe(v);
  int64_t prev = -1;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    int64_t cur = h.QuantileInterpolated(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
  // The interpolated median of 0..9999 should be in the right ballpark
  // (log2 buckets are coarse, but rank interpolation stays within the
  // containing bucket [4096, 8191]).
  int64_t p50 = h.QuantileInterpolated(0.5);
  EXPECT_GE(p50, 4096);
  EXPECT_LE(p50, 8191);
}

// ---------------------------------------------------------------------------
// Span tree mechanics

TEST(ProfilerTest, SpansMergeByNameAndNest) {
  auto& profiler = obs::Profiler::Global();
  profiler.Enable();
  {
    obs::ProfSpan outer("test", "outer");
    for (int i = 0; i < 3; ++i) {
      obs::ProfSpan inner("test", "inner");
      obs::ProfCount(obs::ProfCounter::kAndOps, 2);
    }
    obs::ProfCount(obs::ProfCounter::kOrOps, 5);
  }
  obs::QueryProfile profile = obs::CaptureProfile();
  profiler.Disable();

  ASSERT_EQ(profile.root.children.size(), 1u);
  const obs::ProfSample& outer = profile.root.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.calls, 1);
  // Three same-named spans merged into one node with calls = 3.
  ASSERT_EQ(outer.children.size(), 1u);
  const obs::ProfSample& inner = outer.children[0];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.calls, 3);
  EXPECT_EQ(inner.InclusiveCounter(obs::ProfCounter::kAndOps), 6);
  // Or ops were attributed to `outer` itself; inclusive rolls both up.
  EXPECT_EQ(outer.InclusiveCounter(obs::ProfCounter::kAndOps), 6);
  EXPECT_EQ(outer.InclusiveCounter(obs::ProfCounter::kOrOps), 5);
  EXPECT_EQ(profile.root.InclusiveCounter(obs::ProfCounter::kOrOps), 5);
}

TEST(ProfilerTest, DisabledProfilerAttributesNothing) {
  ASSERT_FALSE(obs::Profiler::enabled());
  obs::ProfSpan span("test", "ignored");
  obs::ProfCount(obs::ProfCounter::kAndOps, 100);
  EXPECT_FALSE(span.active());
}

TEST(ProfilerTest, StaleHandleAdoptionIsNoOp) {
  auto& profiler = obs::Profiler::Global();
  profiler.Enable();
  obs::ProfHandle old_handle = obs::Profiler::CurrentHandle();
  profiler.Disable();
  profiler.Enable();  // new epoch: old_handle must not resolve
  {
    obs::ProfAdopt adopt(old_handle);
    obs::ProfCount(obs::ProfCounter::kXorOps, 7);
  }
  obs::QueryProfile profile = obs::CaptureProfile();
  profiler.Disable();
  // The count fell back to the *current* session's root rather than the
  // stale node, so it is still conserved.
  EXPECT_EQ(profile.root.InclusiveCounter(obs::ProfCounter::kXorOps), 7);
}

TEST(ProfilerTest, WorkerThreadAttributesThroughAdoption) {
  auto& profiler = obs::Profiler::Global();
  profiler.Enable();
  {
    obs::ProfSpan span("test", "parallel stage");
    obs::ProfHandle handle = obs::Profiler::CurrentHandle();
    std::thread worker([handle] {
      obs::ProfAdopt adopt(handle);
      obs::ProfCount(obs::ProfCounter::kNotOps, 3);
    });
    worker.join();
  }
  obs::QueryProfile profile = obs::CaptureProfile();
  profiler.Disable();
  ASSERT_EQ(profile.root.children.size(), 1u);
  EXPECT_EQ(
      profile.root.children[0].InclusiveCounter(obs::ProfCounter::kNotOps),
      3);
}

// ---------------------------------------------------------------------------
// Collapsed-stack export

TEST(ProfilerTest, CollapsedStacksAreWellFormed) {
  auto& profiler = obs::Profiler::Global();
  profiler.Enable();
  {
    obs::ProfSpan a("test", "stage one");  // space must be sanitized
    {
      obs::ProfSpan b("test", "ker;nel");  // ';' must be sanitized
    }
  }
  obs::QueryProfile profile = obs::CaptureProfile();
  profiler.Disable();

  std::string collapsed = profile.ToCollapsed();
  ASSERT_FALSE(collapsed.empty());
  // Every line: frame(;frame)* SPACE count.  Frames contain neither spaces
  // nor semicolons (both are flamegraph.pl separators).
  std::regex line_re(R"(^[^ ;]+(;[^ ;]+)* [0-9]+$)");
  std::istringstream lines(collapsed);
  std::string line;
  bool saw_sanitized = false;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(std::regex_match(line, line_re)) << "bad line: " << line;
    if (line.find("stage_one") != std::string::npos ||
        line.find("ker_nel") != std::string::npos) {
      saw_sanitized = true;
    }
  }
  EXPECT_TRUE(saw_sanitized) << collapsed;
}

// ---------------------------------------------------------------------------
// Chrome trace thread attribution

TEST(TracerTest, EventsCarryStableThreadIds) {
  auto& tracer = obs::Tracer::Global();
  tracer.Enable();
  {
    obs::TraceSpan main_span("test", "main work");
    std::thread worker(
        [] { obs::TraceSpan span("test", "worker work"); });
    worker.join();
  }
  tracer.Disable();
  std::string json = tracer.ToChromeJson();
  // Thread-name metadata events announce every tid used.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  // The two spans ran on different threads, so at least two distinct tids
  // appear.
  EXPECT_NE(json.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(json.find("worker-"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Conservation: profiled spans vs the process-wide registry

struct RegistryDelta {
  int64_t scans, and_ops, or_ops, xor_ops, not_ops, hits, bytes;
};

RegistryDelta SnapshotEvalCounters() {
  auto& reg = obs::MetricsRegistry::Global();
  return RegistryDelta{
      reg.GetCounter("eval.bitmap_scans").value(),
      reg.GetCounter("eval.and_ops").value(),
      reg.GetCounter("eval.or_ops").value(),
      reg.GetCounter("eval.xor_ops").value(),
      reg.GetCounter("eval.not_ops").value(),
      reg.GetCounter("eval.buffer_hits").value(),
      reg.GetCounter("eval.bytes_read").value(),
  };
}

class ProfileConservationTest : public ::testing::TestWithParam<EngineKind> {
};

// One profiled query on a BS-scheme stored index: the span tree's inclusive
// root counters must equal the registry delta exactly, whichever engine ran
// it.  (BS is the scheme whose preload bytes all flow through the profiled
// fetch path; CS/IS preload in the source constructor before spans exist.)
// The index spans three full replay segments plus a partial one, so the
// replay crosses segment seams inside the profiled query.
TEST_P(ProfileConservationTest, RootCountersMatchRegistryDelta) {
  const ExecOptions exec{.engine = GetParam()};

  const uint32_t c = 50;
  const size_t rows = 3 * (size_t{1} << kSegmentBits) + 37;
  std::vector<uint32_t> values = GenerateUniform(rows, c, 23);
  BaseSequence base = BaseSequence::FromMsbFirst({8, 7});
  BitmapIndex index =
      BitmapIndex::Build(values, c, base, Encoding::kRange);
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel,
                                 *CodecByName("none"), &stored)
                  .ok());

  const RegistryDelta before = SnapshotEvalCounters();
  auto& profiler = obs::Profiler::Global();
  profiler.Enable();
  EvalStats stats;
  Status status;
  Bitvector result = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe,
                                      31, &stats, nullptr, &status, &exec);
  ASSERT_TRUE(status.ok());
  obs::QueryProfile profile = obs::CaptureProfile();
  profiler.Disable();
  const RegistryDelta after = SnapshotEvalCounters();

  EXPECT_EQ(result, index.Evaluate(CompareOp::kLe, 31));
  const obs::ProfSample& root = profile.root;
  EXPECT_EQ(root.InclusiveCounter(obs::ProfCounter::kBitmapScans),
            after.scans - before.scans);
  EXPECT_EQ(root.InclusiveCounter(obs::ProfCounter::kAndOps),
            after.and_ops - before.and_ops);
  EXPECT_EQ(root.InclusiveCounter(obs::ProfCounter::kOrOps),
            after.or_ops - before.or_ops);
  EXPECT_EQ(root.InclusiveCounter(obs::ProfCounter::kXorOps),
            after.xor_ops - before.xor_ops);
  EXPECT_EQ(root.InclusiveCounter(obs::ProfCounter::kNotOps),
            after.not_ops - before.not_ops);
  EXPECT_EQ(root.InclusiveCounter(obs::ProfCounter::kBufferHits),
            after.hits - before.hits);
  EXPECT_EQ(root.InclusiveCounter(obs::ProfCounter::kBytesRead),
            after.bytes - before.bytes);
  // The per-query EvalStats agree with the span tree too.
  EXPECT_EQ(root.InclusiveCounter(obs::ProfCounter::kBitmapScans),
            stats.bitmap_scans);
  EXPECT_EQ(root.InclusiveCounter(obs::ProfCounter::kAndOps) +
                root.InclusiveCounter(obs::ProfCounter::kOrOps) +
                root.InclusiveCounter(obs::ProfCounter::kXorOps) +
                root.InclusiveCounter(obs::ProfCounter::kNotOps),
            stats.TotalOps());
  // And something actually ran under the root (the stored-eval span).
  ASSERT_FALSE(root.children.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ProfileConservationTest,
    ::testing::Values(EngineKind::kPlain, EngineKind::kAuto),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(ToString(info.param));
    });

}  // namespace
}  // namespace bix
