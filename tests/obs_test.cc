// Observability layer: histogram bucketing, registry snapshot determinism,
// trace JSON well-formedness, and the cost-model audit — the paper's
// analytic scan counts checked against the instrumented implementation over
// an exhaustive query space.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/buffering.h"
#include "core/advisor.h"
#include "core/bitmap_index.h"
#include "core/compressed_source.h"
#include "core/cost_model.h"
#include "core/eval.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/generators.h"

#include "param_names.h"

namespace bix {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::Tracer;

// ---------------------------------------------------------------- metrics --

TEST(HistogramTest, BucketIndexIsLogScale) {
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, BucketUpperBoundsAdmitExactlyTheirRange) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            INT64_MAX);
  // Every value lands in the bucket whose bound admits it and whose
  // predecessor's does not.
  for (int64_t v : {int64_t{1}, int64_t{5}, int64_t{1000}, int64_t{1} << 40}) {
    int k = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(k)) << v;
    EXPECT_GT(v, Histogram::BucketUpperBound(k - 1)) << v;
  }
}

TEST(HistogramTest, ObserveTracksCountSumMinMaxQuantiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0);

  for (int64_t v : {3, 5, 9, 100, 1000}) h.Observe(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 1117);
  EXPECT_EQ(h.min(), 3);
  EXPECT_EQ(h.max(), 1000);
  // Median observation is 9; its bucket [8, 15] reports bound 15.
  EXPECT_EQ(h.Quantile(0.5), 15);
  EXPECT_EQ(h.Quantile(1.0), Histogram::BucketUpperBound(
                                 Histogram::BucketIndex(1000)));

  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
}

TEST(MetricsRegistryTest, CountersAndGaugesAccumulate) {
  MetricsRegistry reg;
  reg.GetCounter("test.counter").Increment();
  reg.GetCounter("test.counter").Increment(41);
  reg.GetGauge("test.gauge").Set(7);
  reg.GetGauge("test.gauge").Add(3);
  EXPECT_EQ(reg.GetCounter("test.counter").value(), 42);
  EXPECT_EQ(reg.GetGauge("test.gauge").value(), 10);
  reg.ResetAll();
  EXPECT_EQ(reg.GetCounter("test.counter").value(), 0);
}

TEST(MetricsRegistryTest, SnapshotIsDeterministicAndNameSorted) {
  MetricsRegistry reg;
  // Register out of order; snapshots must come back lexicographic.
  reg.GetCounter("zz.last").Increment(3);
  reg.GetHistogram("mm.middle").Observe(8);
  reg.GetCounter("aa.first").Increment();

  MetricsSnapshot snap1 = reg.Snapshot();
  MetricsSnapshot snap2 = reg.Snapshot();
  ASSERT_EQ(snap1.samples.size(), 3u);
  EXPECT_EQ(snap1.samples[0].name, "aa.first");
  EXPECT_EQ(snap1.samples[1].name, "mm.middle");
  EXPECT_EQ(snap1.samples[2].name, "zz.last");
  // Identical state -> identical exports, bit for bit.
  EXPECT_EQ(snap1.ToText(), snap2.ToText());
  EXPECT_EQ(snap1.ToJson(), snap2.ToJson());

  const obs::MetricSample* hist = snap1.Find("mm.middle");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->value, 1);
  EXPECT_EQ(hist->sum, 8);
}

TEST(MetricsRegistryTest, GlobalRegistrySeesEvaluations) {
  std::vector<uint32_t> values = GenerateUniform(64, 20, 11);
  BitmapIndex index = BitmapIndex::Build(values, 20, KneeBase(20),
                                         Encoding::kRange);
  int64_t queries_before =
      MetricsRegistry::Global().GetCounter("eval.queries").value();
  int64_t scans_before =
      MetricsRegistry::Global().GetCounter("eval.bitmap_scans").value();
  EvalStats stats;
  index.Evaluate(CompareOp::kLe, 7, &stats);
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("eval.queries").value(),
      queries_before + 1);
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("eval.bitmap_scans").value(),
      scans_before + stats.bitmap_scans);
}

// ------------------------------------------------------------------ trace --

// Minimal structural JSON check: quotes toggle string state, braces and
// brackets must balance and close in order.
bool JsonIsBalanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') stack.push_back(c);
    if (c == '}' || c == ']') {
      if (stack.empty()) return false;
      char open = stack.back();
      stack.pop_back();
      if ((c == '}') != (open == '{')) return false;
    }
  }
  return stack.empty() && !in_string;
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Disable();
  tracer.Clear();
  std::vector<uint32_t> values = GenerateUniform(64, 20, 13);
  BitmapIndex index = BitmapIndex::Build(values, 20, KneeBase(20),
                                         Encoding::kRange);
  index.Evaluate(CompareOp::kLe, 7);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, EnabledTracerCapturesFetchAndOpEvents) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  std::vector<uint32_t> values = GenerateUniform(64, 20, 13);
  BitmapIndex index = BitmapIndex::Build(values, 20, KneeBase(20),
                                         Encoding::kRange);
  EvalStats stats;
  index.Evaluate(CompareOp::kLe, 7, &stats);
  tracer.Disable();

  std::vector<obs::TraceEvent> events = tracer.Events();
  int64_t fetches = 0;
  int64_t ops = 0;
  bool saw_eval_span = false;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.category) == "fetch") {
      ++fetches;
      EXPECT_GE(e.component, 0);
      EXPECT_GE(e.slot, 0);
      EXPECT_GE(e.dur_ns, 0);  // fetches are spans
    } else if (std::string(e.category) == "op") {
      ++ops;
      EXPECT_LT(e.dur_ns, 0);  // ops are instants
    } else if (std::string(e.category) == "eval") {
      saw_eval_span = true;
    }
  }
  EXPECT_EQ(fetches, stats.bitmap_scans);
  EXPECT_EQ(ops, stats.TotalOps());
  EXPECT_TRUE(saw_eval_span);
  tracer.Clear();
}

TEST(TracerTest, ChromeJsonIsWellFormed) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  std::vector<uint32_t> values = GenerateUniform(64, 30, 17);
  BitmapIndex index = BitmapIndex::Build(values, 30, KneeBase(30),
                                         Encoding::kRange);
  index.Evaluate(CompareOp::kGt, 12);
  tracer.Disable();

  std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // op instants
  EXPECT_TRUE(JsonIsBalanced(json)) << json;

  // Detail strings with JSON-special characters survive escaping.
  obs::TraceEvent tricky;
  tricky.category = "test";
  tricky.name = "escape";
  tricky.detail = "quote \" backslash \\ newline \n tab \t";
  tracer.Enable();
  tracer.Record(tricky);
  tracer.Disable();
  EXPECT_TRUE(JsonIsBalanced(tracer.ToChromeJson()));
  tracer.Clear();
}

// ------------------------------------------------------------------ audit --

struct AuditCase {
  std::vector<uint32_t> bases_msb;
  uint32_t cardinality;
  Encoding encoding;
  EvalAlgorithm algorithm;
};

std::string CaseName(const AuditCase& c) {
  std::string name = test::DesignName(c.bases_msb, c.cardinality) +
                     test::EncodingName(c.encoding);
  switch (c.algorithm) {
    case EvalAlgorithm::kRangeEval: return name + "RE";
    case EvalAlgorithm::kRangeEvalOpt: return name + "REOpt";
    case EvalAlgorithm::kEqualityEval: return name + "EE";
    default: return name + "Auto";
  }
}
void PrintTo(const AuditCase& c, std::ostream* os) { *os << CaseName(c); }

class AuditSweep : public ::testing::TestWithParam<AuditCase> {};

// The acceptance property of the observability layer: measured scans equal
// the closed-form ModelScans prediction for *every* query in Q, and the
// structural replay reproduces the full operation mix.
TEST_P(AuditSweep, MeasuredStatsMatchModelOverExhaustiveQuerySpace) {
  const AuditCase& c = GetParam();
  BaseSequence base = BaseSequence::FromMsbFirst(c.bases_msb);
  std::vector<uint32_t> values = GenerateUniform(128, c.cardinality, 23);
  BitmapIndex index =
      BitmapIndex::Build(values, c.cardinality, base, c.encoding);

  for (CompareOp op : kAllCompareOps) {
    // Include out-of-domain constants: the model must predict the trivial
    // 0-scan results too.
    for (int64_t v = -1; v <= static_cast<int64_t>(c.cardinality); ++v) {
      EvalStats measured;
      EvaluatePredicate(index, c.algorithm, op, v, &measured);

      int64_t model = ModelScans(base, c.cardinality, c.encoding, c.algorithm,
                                 op, v);
      EvalStats predicted = obs::PredictStats(base, c.cardinality, c.encoding,
                                              c.algorithm, op, v);
      EXPECT_EQ(measured.bitmap_scans, model)
          << ToString(op) << " " << v << " (closed form)";
      EXPECT_EQ(measured.bitmap_scans, predicted.bitmap_scans)
          << ToString(op) << " " << v << " (replay)";
      EXPECT_EQ(measured.and_ops, predicted.and_ops) << ToString(op) << " " << v;
      EXPECT_EQ(measured.or_ops, predicted.or_ops) << ToString(op) << " " << v;
      EXPECT_EQ(measured.xor_ops, predicted.xor_ops) << ToString(op) << " " << v;
      EXPECT_EQ(measured.not_ops, predicted.not_ops) << ToString(op) << " " << v;

      obs::QueryAudit audit = obs::AuditQuery(base, c.cardinality, c.encoding,
                                              c.algorithm, op, v, measured);
      EXPECT_TRUE(audit.ok()) << audit.ToText();
    }
  }
}

TEST_P(AuditSweep, AuditSourceReportsCleanAndMeansAgree) {
  const AuditCase& c = GetParam();
  BaseSequence base = BaseSequence::FromMsbFirst(c.bases_msb);
  std::vector<uint32_t> values = GenerateUniform(128, c.cardinality, 29);
  BitmapIndex index =
      BitmapIndex::Build(values, c.cardinality, base, c.encoding);

  obs::AuditReport report = obs::AuditSource(index, c.algorithm);
  EXPECT_TRUE(report.ok()) << report.ToText();
  EXPECT_EQ(report.queries_checked, 6 * static_cast<int64_t>(c.cardinality));
  EXPECT_EQ(report.max_abs_scan_drift, 0);
  EXPECT_EQ(report.max_abs_op_drift, 0);
  EXPECT_NEAR(report.measured_mean_scans, report.expected_mean_scans, 1e-9);
  EXPECT_TRUE(JsonIsBalanced(report.ToJson()));
}

INSTANTIATE_TEST_SUITE_P(
    Designs, AuditSweep,
    ::testing::Values(
        // Single-component (the paper's C = 17 running example).
        AuditCase{{17}, 17, Encoding::kRange, EvalAlgorithm::kRangeEvalOpt},
        // Knee-style two-component range index, both algorithms.
        AuditCase{{5, 5}, 25, Encoding::kRange, EvalAlgorithm::kRangeEvalOpt},
        AuditCase{{5, 5}, 25, Encoding::kRange, EvalAlgorithm::kRangeEval},
        // Cardinality below capacity (non-tight base).
        AuditCase{{4, 5}, 18, Encoding::kRange, EvalAlgorithm::kRangeEvalOpt},
        // Equality encoding, including base-2 components (complement digit).
        AuditCase{{3, 3, 3}, 27, Encoding::kEquality,
                  EvalAlgorithm::kEqualityEval},
        AuditCase{{2, 2, 2, 2}, 16, Encoding::kEquality,
                  EvalAlgorithm::kEqualityEval},
        AuditCase{{7, 2}, 13, Encoding::kEquality,
                  EvalAlgorithm::kEqualityEval}),
    test::ParamName<AuditCase>);

// Buffered sources satisfy the audit in its scans-plus-hits form: a pinned
// fetch is a buffer hit instead of a scan, but the logical fetch count the
// model predicts is unchanged.
TEST(AuditBufferedTest, BufferedSourcePassesAuditViaHits) {
  const uint32_t c = 24;
  BaseSequence base = BaseSequence::FromMsbFirst({4, 6});
  std::vector<uint32_t> values = GenerateUniform(128, c, 31);
  BitmapIndex index = BitmapIndex::Build(values, c, base, Encoding::kRange);
  BufferAssignment assignment = OptimalBufferAssignment(base, 4);
  BufferedSource buffered(index, assignment);

  int64_t total_hits = 0;
  for (CompareOp op : kAllCompareOps) {
    for (uint32_t v = 0; v < c; ++v) {
      EvalStats measured;
      EvaluatePredicate(buffered, EvalAlgorithm::kRangeEvalOpt, op,
                        static_cast<int64_t>(v), &measured);
      obs::QueryAudit audit =
          obs::AuditQuery(base, c, Encoding::kRange,
                          EvalAlgorithm::kRangeEvalOpt, op,
                          static_cast<int64_t>(v), measured);
      EXPECT_TRUE(audit.ok()) << audit.ToText();
      total_hits += measured.buffer_hits;
    }
  }
  EXPECT_GT(total_hits, 0);  // pinning actually absorbed fetches
}

// The WAH-compressed source serves the same bitmaps, so the audit holds
// there too (scan-exactness is independent of the physical representation).
TEST(AuditCompressedTest, WahSourcePassesAudit) {
  const uint32_t c = 20;
  std::vector<uint32_t> values = GenerateUniform(256, c, 37);
  BitmapIndex index =
      BitmapIndex::Build(values, c, KneeBase(c), Encoding::kRange);
  WahCompressedSource wah(index);
  obs::AuditReport report = obs::AuditSource(wah);
  EXPECT_TRUE(report.ok()) << report.ToText();
}

}  // namespace
}  // namespace bix
