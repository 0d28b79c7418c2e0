// Measurement helpers of the end-to-end benchmark (bench_main.cc): the
// tail-percentile rule, the in-memory span recorder with per-layer self
// time, on-disk size accounting and foundset fingerprints.  Kept apart from
// bench_main.cc so bench_lib_test.cc can check the arithmetic on hand-built
// inputs.

#ifndef BIXBENCH_BENCH_LIB_H_
#define BIXBENCH_BENCH_LIB_H_

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bitmap/bitvector.h"

namespace bixbench {

/// A latency sample summarised for reporting: the median and the highest
/// percentile (at most the requested one) that still has at least
/// `kMinBeyond` samples above it, with the sample count.
struct LatencySummary {
  double p50 = 0;
  double tail = 0;
  double tail_percentile = 0;  // e.g. 0.99; 0.5 when too few samples
  size_t samples = 0;
};

inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile of ascending `sorted` (p in (0, 1]): the value
/// at 0-based rank ceil(p * n) - 1.  0 for an empty sample.
double NearestRank(std::span<const double> sorted, double p);

/// The highest percentile <= `target` whose nearest-rank sample has at
/// least `min_beyond` samples ranked above it: min(target, (n - min_beyond)
/// / n).  Never below the median (0.5), which is what a sample of fewer
/// than 2 * min_beyond values reports.
double SupportedPercentile(size_t samples, double target,
                           size_t min_beyond = kMinBeyond);

/// Median of `v` (any order; the mean of the middle two for even sizes),
/// 0 for an empty sample.
double Median(std::vector<double> v);

/// Median plus the supported tail percentile of `samples` (any order).
LatencySummary Summarize(std::vector<double> samples, double target = 0.99);

/// Closed-loop figures computed per chunk of consecutive queries and
/// reported as the median over chunks, so a slow phase of the machine that
/// covers less than half the run does not move them.  A chunk's tail is its
/// highest percentile with kMinBeyond samples beyond it (0.99 for chunks of
/// 1024).  Runs shorter than two chunks use the whole sample as one chunk.
struct ChunkedSummary {
  double qps = 0;
  double p50 = 0;
  double tail = 0;
  double tail_percentile = 0;
  size_t chunks = 0;
  size_t samples = 0;
};

/// Where a chunk ends: the number of queries completed so far and the
/// loop's cumulative timed nanoseconds at that point.  The workload stamps
/// it, so a chunk's time can include work after its last query (the writes
/// and compactions that close a schedule cycle).
struct ChunkEnd {
  size_t queries = 0;
  int64_t timed_ns = 0;
};

/// `latency[i]` is query i's latency; `ends` are non-decreasing.  Chunk k
/// holds queries [ends[k-1].queries, ends[k].queries) (from 0 for k = 0)
/// and its rate is their count over ends[k].timed_ns - ends[k-1].timed_ns.
/// Queries after the last end are left out.  With fewer than two chunks the
/// whole sample is one chunk, timed over `total_ns`.
ChunkedSummary SummarizeChunks(std::span<const double> latency,
                               std::span<const ChunkEnd> ends,
                               int64_t total_ns, double target = 0.99);

/// One recorded span.  `parent` is the id of the enclosing span (0 for a
/// root); every span of one query carries that query's id.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query_id = 0;
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time and span count of one layer (or one span name).
struct SpanTotals {
  int64_t self_ns = 0;
  int64_t total_ns = 0;
  int64_t count = 0;
};

/// Records nested spans in memory from one thread.  A span's self time is
/// its duration minus the durations of its direct children (children lie
/// inside their parent, so this is the part of the interval no child
/// covers).  Totals are kept per layer and per span name for every span;
/// the span list itself is capped at `max_kept` entries so a long run
/// cannot grow without bound (the totals stay exact).
///
/// Per root span, the recorder also sums each span name's duration inside
/// that root, so "time in storage.fetch per query" is a sample per root.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t max_kept = 200000) : max_kept_(max_kept) {}

  /// Opens a span at `now_ns` under the innermost open span.  `query_id`
  /// is taken from the root when nested.
  void Begin(const std::string& name, const std::string& layer,
             uint64_t query_id, int64_t now_ns);
  /// Closes the innermost open span at `now_ns`.
  void End(int64_t now_ns);
  /// Records an already-finished child [start_ns, end_ns) of the innermost
  /// open span (a part of a call whose duration the callee reports, such
  /// as the decode time a fetch returns).
  void AddChild(const std::string& name, const std::string& layer,
                int64_t start_ns, int64_t end_ns);

  bool open() const { return !stack_.empty(); }
  const std::map<std::string, SpanTotals>& layers() const { return layers_; }
  const std::map<std::string, SpanTotals>& names() const { return names_; }
  /// Per-root sums of `name`'s duration, one entry per root span in which
  /// `name` occurred (a root contributes its own duration under its own
  /// name).
  std::vector<double> PerRootNs(const std::string& name) const;
  /// Self and total time of root spans in `layer` (the benchmark's own
  /// loop spans): their self time is what no layer span accounts for.
  SpanTotals RootTotals(const std::string& layer) const;
  const std::vector<Span>& spans() const { return spans_; }
  size_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds) of the
  /// kept spans plus the per-layer and per-name summaries.  `meta_json` is
  /// a JSON object embedded verbatim under "meta".
  std::string ToChromeTrace(const std::string& meta_json) const;

 private:
  struct Frame {
    Span span;
    int64_t child_ns = 0;
    std::map<std::string, int64_t> root_name_ns;  // roots only
  };
  void Finish(Span span, int64_t child_ns);

  size_t max_kept_;
  uint64_t next_id_ = 1;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  size_t dropped_ = 0;
  std::map<std::string, SpanTotals> layers_;
  std::map<std::string, SpanTotals> names_;
  std::map<std::string, SpanTotals> root_layers_;
  std::map<std::string, std::vector<double>> per_root_;
};

/// Total size of every regular file under `dir` (recursively): blobs,
/// manifest, sidecars, logs and tombstones alike.
uint64_t DirectoryBytes(const std::filesystem::path& dir);

/// Order-sensitive 64-bit fingerprint of a bitvector's length and words;
/// equal bitvectors always agree, unequal ones collide with probability
/// ~2^-64.
uint64_t Fingerprint(const bix::Bitvector& bits);

/// Escapes `s` as the body of a JSON string.
std::string JsonEscape(const std::string& s);

}  // namespace bixbench

#endif  // BIXBENCH_BENCH_LIB_H_
