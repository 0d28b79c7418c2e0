#include "core/cost_model.h"

#include <algorithm>
#include <vector>

#include "core/bitmap_source.h"
#include "core/check.h"

namespace bix {

EvalAlgorithm ResolveAlgorithm(Encoding encoding, EvalAlgorithm algorithm) {
  if (algorithm == EvalAlgorithm::kAuto) {
    return encoding == Encoding::kRange ? EvalAlgorithm::kRangeEvalOpt
                                        : EvalAlgorithm::kEqualityEval;
  }
  const bool range_algorithm = algorithm == EvalAlgorithm::kRangeEval ||
                               algorithm == EvalAlgorithm::kRangeEvalOpt;
  BIX_CHECK_MSG(range_algorithm == (encoding == Encoding::kRange),
                range_algorithm
                    ? "RangeEval requires a range-encoded index"
                    : "EqualityEval requires an equality-encoded index");
  return algorithm;
}

namespace {

// --- Per-digit scan costs, mirroring core/eval_algorithms.h exactly. -----

// RangeEval fetches B^{v_i-1} and/or B^{v_i}: 1 scan at the digit extremes,
// 2 in the middle; identical for all six operators.
int64_t RangeEvalDigitScans(uint32_t b, uint32_t d) {
  return (d == 0 || d == b - 1) ? 1 : 2;
}

// RangeEval-Opt, equality path (= and !=).
int64_t RangeOptEqDigitScans(uint32_t b, uint32_t d) {
  return (d == 0 || d == b - 1) ? 1 : 2;
}

// RangeEval-Opt, range path (digits of the normalized bound w).
int64_t RangeOptRangeDigitScans(uint32_t b, uint32_t d, bool is_component1) {
  if (is_component1) return d == b - 1 ? 0 : 1;
  return (d != b - 1 ? 1 : 0) + (d != 0 ? 1 : 0);
}

// EqualityEval, range path.
int64_t EqualityRangeDigitScans(uint32_t b, uint32_t d, bool is_component1) {
  if (is_component1) {
    if (d == b - 1) return 0;
    if (b == 2) return 1;
    return std::min(d + 1, b - 1 - d);
  }
  if (b == 2 || d == 0) return 1;
  return 1 + std::min(d, b - 1 - d);
}

// Number of x in [0, K) whose i-th digit equals d, for the given base
// sequence (digits least-significant first).
int64_t DigitCount(const BaseSequence& base, int i, uint32_t d, int64_t k) {
  int64_t period = 1;
  for (int j = 0; j < i; ++j) period *= base.base(j);
  int64_t cycle = period * base.base(i);
  int64_t full = (k / cycle) * period;
  int64_t rem = k % cycle - static_cast<int64_t>(d) * period;
  return full + std::clamp<int64_t>(rem, 0, period);
}

// Sum over the two operator groups of the total scans across all C queries.
struct QueryGroupTotals {
  // Operators evaluated on digits of v itself over [0, C).
  int64_t direct = 0;
  // Range bound w = v over [0, C)  (operators <= and >).
  int64_t bound_full = 0;
  // Range bound w = v - 1 over [0, C-1)  (operators < and >=; w = -1
  // contributes zero scans).
  int64_t bound_minus1 = 0;
};

}  // namespace

int64_t SpaceInBitmaps(const BaseSequence& base, Encoding encoding) {
  int64_t total = 0;
  for (int i = 0; i < base.num_components(); ++i) {
    total += NumStoredBitmaps(encoding, base.base(i));
  }
  return total;
}

double ExactTime(const BaseSequence& base, uint32_t cardinality,
                 Encoding encoding, EvalAlgorithm algorithm) {
  BIX_CHECK(cardinality >= 1);
  BIX_CHECK(base.IsWellDefinedFor(cardinality));
  algorithm = ResolveAlgorithm(encoding, algorithm);
  const int n = base.num_components();
  const int64_t c = cardinality;

  QueryGroupTotals totals;
  for (int i = 0; i < n; ++i) {
    uint32_t b = base.base(i);
    for (uint32_t d = 0; d < b; ++d) {
      int64_t count_full = DigitCount(base, i, d, c);
      if (count_full == 0) continue;
      int64_t count_minus1 = DigitCount(base, i, d, c - 1);
      switch (algorithm) {
        case EvalAlgorithm::kRangeEval:
          totals.direct += count_full * RangeEvalDigitScans(b, d);
          break;
        case EvalAlgorithm::kRangeEvalOpt:
          totals.direct += count_full * RangeOptEqDigitScans(b, d);
          totals.bound_full +=
              count_full * RangeOptRangeDigitScans(b, d, i == 0);
          totals.bound_minus1 +=
              count_minus1 * RangeOptRangeDigitScans(b, d, i == 0);
          break;
        case EvalAlgorithm::kEqualityEval:
          totals.direct += count_full;  // 1 scan per component for = / !=
          totals.bound_full +=
              count_full * EqualityRangeDigitScans(b, d, i == 0);
          totals.bound_minus1 +=
              count_minus1 * EqualityRangeDigitScans(b, d, i == 0);
          break;
        case EvalAlgorithm::kAuto:
          BIX_CHECK(false);
      }
    }
  }

  int64_t grand;
  if (algorithm == EvalAlgorithm::kRangeEval) {
    // All six operators decompose v directly.
    grand = 6 * totals.direct;
  } else {
    // {=, !=} use v; {<=, >} use w = v; {<, >=} use w = v - 1.
    grand = 2 * totals.direct + 2 * totals.bound_full + 2 * totals.bound_minus1;
  }
  return static_cast<double>(grand) / (6.0 * static_cast<double>(c));
}

namespace {

// Digit-uniform expected scans per operator class.
struct ClassTimes {
  double equality = 0;  // ops {=, !=}
  double range = 0;     // ops {<, <=, >, >=}
};

ClassTimes AnalyticClassTimes(const BaseSequence& base,
                              EvalAlgorithm algorithm) {
  const int n = base.num_components();
  ClassTimes out;
  if (algorithm == EvalAlgorithm::kRangeEval) {
    double t = 0;
    for (int i = 0; i < n; ++i) t += 2.0 - 2.0 / base.base(i);
    out.equality = out.range = t;
    return out;
  }
  if (algorithm == EvalAlgorithm::kRangeEvalOpt) {
    for (int i = 0; i < n; ++i) {
      out.equality += 2.0 - 2.0 / base.base(i);
    }
    out.range = 1.0 - 1.0 / base.base(0);
    for (int i = 1; i < n; ++i) out.range += 2.0 - 2.0 / base.base(i);
    return out;
  }
  // EqualityEval: one scan per component for equality; the per-component
  // digit-uniform expectation of the range-path cost otherwise.
  out.equality = n;
  for (int i = 0; i < n; ++i) {
    uint32_t b = base.base(i);
    int64_t digit_total = 0;
    for (uint32_t d = 0; d < b; ++d) {
      digit_total += EqualityRangeDigitScans(b, d, i == 0);
    }
    out.range += static_cast<double>(digit_total) / b;
  }
  return out;
}

}  // namespace

double AnalyticTime(const BaseSequence& base, Encoding encoding,
                    EvalAlgorithm algorithm) {
  return AnalyticTimeForMix(base, encoding, WorkloadMix::Uniform(), algorithm);
}

double AnalyticTimeForMix(const BaseSequence& base, Encoding encoding,
                          const WorkloadMix& mix, EvalAlgorithm algorithm) {
  BIX_CHECK(mix.range_fraction >= 0 && mix.range_fraction <= 1);
  algorithm = ResolveAlgorithm(encoding, algorithm);
  ClassTimes t = AnalyticClassTimes(base, algorithm);
  return mix.range_fraction * t.range +
         (1.0 - mix.range_fraction) * t.equality;
}

int64_t ModelScans(const BaseSequence& base, uint32_t cardinality,
                   Encoding encoding, EvalAlgorithm algorithm, CompareOp op,
                   int64_t v) {
  algorithm = ResolveAlgorithm(encoding, algorithm);
  const int n = base.num_components();
  if (v < 0 || v >= static_cast<int64_t>(cardinality)) return 0;

  if (algorithm == EvalAlgorithm::kRangeEval) {
    std::vector<uint32_t> digits = base.Decompose(static_cast<uint64_t>(v));
    int64_t scans = 0;
    for (int i = 0; i < n; ++i) {
      scans += RangeEvalDigitScans(base.base(i), digits[static_cast<size_t>(i)]);
    }
    return scans;
  }

  if (!IsRangeOp(op)) {
    std::vector<uint32_t> digits = base.Decompose(static_cast<uint64_t>(v));
    int64_t scans = 0;
    for (int i = 0; i < n; ++i) {
      uint32_t d = digits[static_cast<size_t>(i)];
      scans += algorithm == EvalAlgorithm::kRangeEvalOpt
                   ? RangeOptEqDigitScans(base.base(i), d)
                   : 1;
    }
    return scans;
  }

  int64_t w = v;
  if (op == CompareOp::kLt || op == CompareOp::kGe) --w;
  if (w < 0) return 0;
  std::vector<uint32_t> digits = base.Decompose(static_cast<uint64_t>(w));
  int64_t scans = 0;
  for (int i = 0; i < n; ++i) {
    uint32_t d = digits[static_cast<size_t>(i)];
    scans += algorithm == EvalAlgorithm::kRangeEvalOpt
                 ? RangeOptRangeDigitScans(base.base(i), d, i == 0)
                 : EqualityRangeDigitScans(base.base(i), d, i == 0);
  }
  return scans;
}

}  // namespace bix
