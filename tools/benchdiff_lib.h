// Noise-aware comparison of two bench-JSON result files (bench/bench_json.h
// schema): a committed baseline and a fresh run.
//
// Policy:
//   - Rows are keyed by (bench, metric, canonicalized params).  If a key
//     appears more than once in a file, the minimum value wins (min-of-reps:
//     robust against scheduler and turbo noise).
//   - Only time-unit metrics (ns/us/ms/s) gate; size and count metrics are
//     reported but never fail the diff (they are deterministic, and a change
//     there means the benchmark itself changed — a schema concern, not a
//     performance one).
//   - A fresh value worse than baseline * (1 + band) is a per-key
//     regression (default band 0.15, i.e. ±15%).  Per-key regressions are
//     reported, but the exit verdict is robust to fat-tailed scheduler
//     noise: the diff FAILS only when the *median* fresh/base ratio
//     exceeds the band or when more than `outlier_frac` of the compared
//     keys regressed.  A uniformly 2x-slower build moves the median and
//     every key, so it always fails; a handful of keys jittered past the
//     band on an otherwise unchanged build does not.
//   - Several fresh files may be folded together (min per key across all
//     of them) — rerunning a bench a few times and folding is the
//     cheapest way to shrink the noise tails.
//   - A baseline key missing from the fresh run is a schema mismatch: the
//     benchmark was renamed or its parameter grid shrank, so the gate can no
//     longer vouch for it.  New fresh-only keys are fine (coverage grew).
//   - If the two files carry "_meta" rows with differing hostnames, the
//     machines are not comparable: warn and refuse to gate (exit 0) unless
//     forced.  Missing metadata on either side downgrades to a warning.
//     Differing engine names ("plain" vs "auto") refuse the same way —
//     engines have different performance envelopes, so folding their
//     baselines would gate one engine's timings against the other's.
//
// Exit codes (mirrored by the benchdiff CLI): 0 pass / refused-to-gate,
// 1 regression, 2 parse error or schema mismatch.

#ifndef BIX_TOOLS_BENCHDIFF_LIB_H_
#define BIX_TOOLS_BENCHDIFF_LIB_H_

#include <map>
#include <string>
#include <vector>

namespace bix::tools {

/// One flat result row.  Param values keep their raw JSON token text
/// ("\"uniform 0.01%\"", "0.0001") so canonicalization never re-formats
/// numbers.
struct BenchRow {
  std::string bench;
  std::vector<std::pair<std::string, std::string>> params;
  std::string metric;
  double value = 0;
  std::string unit;
};

/// A parsed bench-JSON file: the optional "_meta" row split out, result rows
/// kept in file order.
struct BenchFile {
  std::map<std::string, std::string> meta;  // unquoted param values
  std::vector<BenchRow> rows;
};

/// Parses a bench-JSON document.  Returns false and fills `error` on
/// malformed input.
bool ParseBenchFile(const std::string& json, BenchFile* out,
                    std::string* error);

/// Reads and parses `path`.  Returns false and fills `error` on I/O or parse
/// failure.
bool LoadBenchFile(const std::string& path, BenchFile* out,
                   std::string* error);

/// "bench|metric|k1=v1,k2=v2" with params sorted by key.
std::string RowKey(const BenchRow& row);

/// True for units the gate treats as time (lower is better): ns/us/ms/s.
bool IsTimeUnit(const std::string& unit);

struct DiffOptions {
  double band = 0.15;  // allowed fractional slowdown per key / on the median
  // Fraction of compared keys that may regress before the verdict fails
  // even with a clean median (a localized real regression hits few keys
  // but hits them hard and consistently; noise scatters).
  double outlier_frac = 1.0 / 3.0;
  bool force = false;  // gate even when host metadata differs
};

struct DiffResult {
  int exit_code = 0;  // 0 pass, 1 regression, 2 schema mismatch
  bool gated = true;  // false when host mismatch made us refuse to gate
  int compared = 0;   // time-unit keys actually checked
  double median_ratio = 1.0;  // median fresh/base over compared keys
  std::vector<std::string> regressions;  // human-readable, one per key
  std::vector<std::string> missing;      // baseline keys absent from fresh
  std::vector<std::string> warnings;
  std::string report;  // full multi-line report, ends with a verdict line
};

/// Folds several runs of the same bench into one file: all rows
/// concatenated (min-of-reps happens at diff time), metadata from the
/// first file that has any.
BenchFile MergeBenchFiles(const std::vector<BenchFile>& files);

/// Compares `fresh` against `base` under `options`.
DiffResult DiffBenchFiles(const BenchFile& base, const BenchFile& fresh,
                          const DiffOptions& options);

}  // namespace bix::tools

#endif  // BIX_TOOLS_BENCHDIFF_LIB_H_
