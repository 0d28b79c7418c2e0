#include "obs/audit.h"

#include <cstdlib>
#include <sstream>

#include "core/cost_model.h"
#include "core/eval.h"

namespace bix::obs {

namespace {

// Minimal BitmapSource whose bitmaps carry no information: 1 record, every
// stored bitmap zero.  The evaluation algorithms' fetch/op sequence depends
// only on (base, cardinality, op, v), so running them over this source
// replays the exact control flow of a real evaluation at negligible cost.
class ReplaySource final : public BitmapSource {
 public:
  ReplaySource(const BaseSequence& base, uint32_t cardinality,
               Encoding encoding)
      : base_(base),
        cardinality_(cardinality),
        encoding_(encoding),
        non_null_(Bitvector::Ones(1)) {}

  const BaseSequence& base() const override { return base_; }
  Encoding encoding() const override { return encoding_; }
  size_t num_records() const override { return 1; }
  uint32_t cardinality() const override { return cardinality_; }
  const Bitvector& non_null() const override { return non_null_; }
  Bitvector Fetch(int /*component*/, uint32_t /*slot*/,
                  EvalStats* stats) const override {
    if (stats != nullptr) ++stats->bitmap_scans;
    return Bitvector::Zeros(1);
  }

 private:
  const BaseSequence& base_;
  uint32_t cardinality_;
  Encoding encoding_;
  Bitvector non_null_;
};

}  // namespace

EvalStats PredictStats(const BaseSequence& base, uint32_t cardinality,
                       Encoding encoding, EvalAlgorithm algorithm,
                       CompareOp op, int64_t v) {
  ReplaySource replay(base, cardinality, encoding);
  EvalStats predicted;
  EvaluatePredicate(replay, algorithm, op, v, &predicted);
  return predicted;
}

QueryAudit AuditQuery(const BaseSequence& base, uint32_t cardinality,
                      Encoding encoding, EvalAlgorithm algorithm, CompareOp op,
                      int64_t v, const EvalStats& measured) {
  QueryAudit audit;
  audit.op = op;
  audit.v = v;
  audit.measured = measured;
  audit.predicted = PredictStats(base, cardinality, encoding, algorithm, op, v);
  return audit;
}

std::string QueryAudit::ToText() const {
  std::ostringstream out;
  out << "A " << ToString(op) << " " << v << ": scans " << measured.bitmap_scans
      << "/" << predicted.bitmap_scans << " (measured/model)";
  if (measured.buffer_hits > 0) out << ", hits " << measured.buffer_hits;
  out << ", ops " << measured.TotalOps() << "/" << predicted.TotalOps()
      << (ok() ? " [ok]" : " [DRIFT]");
  return out.str();
}

AuditReport AuditSource(const BitmapSource& source, EvalAlgorithm algorithm) {
  AuditReport report;
  const uint32_t c = source.cardinality();
  const BaseSequence& base = source.base();
  const Encoding encoding = source.encoding();
  algorithm = ResolveAlgorithm(encoding, algorithm);
  int64_t total_logical_fetches = 0;
  for (CompareOp op : kAllCompareOps) {
    for (uint32_t v = 0; v < c; ++v) {
      EvalStats measured;
      EvaluatePredicate(source, algorithm, op, static_cast<int64_t>(v),
                        &measured);
      QueryAudit audit = AuditQuery(base, c, encoding, algorithm, op,
                                    static_cast<int64_t>(v), measured);
      ++report.queries_checked;
      total_logical_fetches += measured.bitmap_scans + measured.buffer_hits;
      int64_t scan_drift = std::abs(audit.scan_drift());
      int64_t op_drift = std::abs(audit.op_drift());
      if (!audit.ok()) {
        ++report.queries_failed;
        if (report.failures.size() < AuditReport::kMaxFailuresKept) {
          report.failures.push_back(audit);
        }
      }
      if (scan_drift > report.max_abs_scan_drift) {
        report.max_abs_scan_drift = scan_drift;
      }
      if (op_drift > report.max_abs_op_drift) {
        report.max_abs_op_drift = op_drift;
      }
    }
  }
  if (report.queries_checked > 0) {
    report.measured_mean_scans = static_cast<double>(total_logical_fetches) /
                                 static_cast<double>(report.queries_checked);
  }
  report.expected_mean_scans = ExactTime(base, c, encoding, algorithm);
  return report;
}

std::string AuditReport::ToText() const {
  std::ostringstream out;
  out << "cost-model audit: " << queries_checked << " queries, "
      << queries_failed << " drifted (max |scan drift| " << max_abs_scan_drift
      << ", max |op drift| " << max_abs_op_drift << ")\n"
      << "mean scans/query: measured " << measured_mean_scans << ", model "
      << expected_mean_scans << "\n";
  for (const QueryAudit& f : failures) out << "  " << f.ToText() << "\n";
  return out.str();
}

std::string AuditReport::ToJson() const {
  std::ostringstream out;
  out << "{\"queries_checked\":" << queries_checked
      << ",\"queries_failed\":" << queries_failed
      << ",\"max_abs_scan_drift\":" << max_abs_scan_drift
      << ",\"max_abs_op_drift\":" << max_abs_op_drift
      << ",\"measured_mean_scans\":" << measured_mean_scans
      << ",\"expected_mean_scans\":" << expected_mean_scans
      << ",\"ok\":" << (ok() ? "true" : "false") << "}";
  return out.str();
}

}  // namespace bix::obs
