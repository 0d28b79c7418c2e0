// Hierarchical per-query profiler.
//
// The registry (obs/metrics.h) answers "how much work did the process do";
// the tracer (obs/trace.h) answers "when did each event happen".  Neither
// answers the question the paper's cost model keeps asking: *which plan
// node* paid for the scans and bitwise operations of one evaluation.  The
// profiler does: RAII spans (ProfSpan) form a tree per query — plan node →
// engine stage → kernel/fetch — and every instrumented counter increment
// (ProfCount) lands on the span that was live on the incrementing thread.
//
// Attribution rules:
//  * Spans with the same name under the same parent merge into one node,
//    so per-slot fetches collapse to per-component rows and the tree stays
//    bounded no matter how many times a stage runs.
//  * Counters are attributed to the innermost live span directly; reports
//    show inclusive values (self + descendants), so child counters sum
//    exactly to their parent by construction.
//  * Worker threads inherit the submitting span: the thread pool captures
//    CurrentHandle() at batch submission and wraps each drain in a
//    ProfAdopt, so queries a serve batch runs on pool lanes attribute into
//    the batch's span instead of vanishing.
//
// Cost discipline mirrors the tracer: disabled, every ProfCount and
// ProfSpan is one relaxed atomic load.  Enabled, counter increments are a
// thread-local read plus a relaxed atomic add; only span *creation* (first
// time a name appears under a parent) takes the profiler mutex.

#ifndef BIX_OBS_PROFILE_H_
#define BIX_OBS_PROFILE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bix::obs {

/// The attributable costs.  Every enumerator mirrors an existing
/// process-wide counter; the instrumentation site increments both.
enum class ProfCounter : int {
  kBitmapScans = 0,  // eval.bitmap_scans
  kBytesRead,        // eval.bytes_read (compressed payload bytes)
  kBufferHits,       // eval.buffer_hits
  kAndOps,           // eval.and_ops
  kOrOps,            // eval.or_ops
  kXorOps,           // eval.xor_ops
  kNotOps,           // eval.not_ops
  kWahCompressedOps, // wah_engine.compressed_ops
  kWahPlainOps,      // wah_engine.plain_ops
  kNumCounters,
};

inline constexpr int kNumProfCounters =
    static_cast<int>(ProfCounter::kNumCounters);

/// Short display name ("scans", "bytes", "and", ...).
const char* ToShortString(ProfCounter c);

struct ProfNode;
struct QueryProfile;

/// An opaque reference to a live span, safe to hand to another thread
/// within one Enable()/Capture() session.  A handle from a previous
/// session (epoch mismatch) adopts as a no-op.
struct ProfHandle {
  ProfNode* node = nullptr;
  uint64_t epoch = 0;
};

class Profiler {
 public:
  /// The process-wide profiler used by the library's instrumentation.
  static Profiler& Global();

  /// The *only* check on the disabled hot path (one relaxed atomic load).
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Starts a profiling session: clears any previous tree and begins
  /// attributing.  Must not be called while spans are live.
  void Enable();
  void Disable();

  /// The innermost live span on this thread (root if none); for handing to
  /// worker threads.  Null node when disabled.
  static ProfHandle CurrentHandle();

  /// Out-of-line slow path of ProfCount; call only when enabled().
  static void CountSlow(ProfCounter c, int64_t delta);

 private:
  friend class ProfSpan;
  friend class ProfAdopt;
  friend QueryProfile CaptureProfile();

  Profiler();

  // Enters a (possibly new) child span of the thread's current node and
  // makes it current; returns the node entered.  `prev` receives the state
  // to restore on exit.
  ProfNode* EnterSpan(const char* category, std::string_view name,
                      ProfHandle* prev);
  void ExitSpan(ProfNode* node, int64_t wall_ns, const ProfHandle& prev);

  ProfNode* FindOrCreateChild(ProfNode* parent, const char* category,
                              std::string_view name);

  static std::atomic<bool> enabled_;

  struct Impl;
  Impl* impl_;  // leaked singleton state (never destroyed)
};

/// RAII span.  All work is skipped when profiling was disabled at
/// construction time.  `name` is copied on the enabled path only.
class ProfSpan {
 public:
  ProfSpan(const char* category, std::string_view name);
  ~ProfSpan();
  ProfSpan(const ProfSpan&) = delete;
  ProfSpan& operator=(const ProfSpan&) = delete;

  bool active() const { return node_ != nullptr; }

 private:
  ProfNode* node_ = nullptr;
  ProfHandle prev_;
  int64_t start_ns_ = 0;
};

/// RAII adoption of another thread's span as this thread's current node.
/// Used by the thread pool so the queries of a serve batch attribute into
/// the submitter's span.  No wall time is recorded — the submitting span's clock is
/// already running.
class ProfAdopt {
 public:
  explicit ProfAdopt(const ProfHandle& handle);
  ~ProfAdopt();
  ProfAdopt(const ProfAdopt&) = delete;
  ProfAdopt& operator=(const ProfAdopt&) = delete;

 private:
  bool adopted_ = false;
  ProfHandle prev_;
};

/// Attributes `delta` of counter `c` to the innermost live span on this
/// thread.  Disabled cost: one relaxed atomic load.
inline void ProfCount(ProfCounter c, int64_t delta = 1) {
  if (!Profiler::enabled()) return;
  Profiler::CountSlow(c, delta);
}

/// One node of a captured profile: direct (self-attributed) values plus
/// children.  Inclusive accessors aggregate the subtree.
struct ProfSample {
  std::string name;
  std::string category;
  int64_t calls = 0;     // span entries that landed on this node
  int64_t wall_ns = 0;   // summed span wall time (overlaps under threads)
  std::array<int64_t, kNumProfCounters> counters{};  // self-attributed
  std::vector<ProfSample> children;

  int64_t InclusiveCounter(ProfCounter c) const;
  int64_t InclusiveWallNs() const;  // max(own wall, sum of children)
  /// Wall time not covered by children (floor 0).
  int64_t SelfWallNs() const;
};

/// A captured span tree.
struct QueryProfile {
  ProfSample root;

  /// Annotated tree: one row per node with inclusive wall time and every
  /// nonzero inclusive counter.
  std::string ToText() const;

  /// flamegraph.pl collapsed-stack format: `frame;frame;frame count`, one
  /// line per node with nonzero self wall time (count = self nanoseconds).
  /// Frame names have `;` and whitespace replaced by `_`.
  std::string ToCollapsed() const;
};

/// Snapshot of the current session's tree (callable while enabled; nodes
/// are read with relaxed atomics).
QueryProfile CaptureProfile();

/// Folds one captured query profile into the process-wide registry
/// histograms (profile.query_wall_ns, profile.query_bitmap_scans), the
/// percentile feed for the future concurrent query service.
void ObserveQueryProfile(const QueryProfile& profile);

}  // namespace bix::obs

#endif  // BIX_OBS_PROFILE_H_
