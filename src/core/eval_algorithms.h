// The paper's evaluation algorithms, parameterized over an execution engine.
//
// core/eval.h documents the three algorithms (RangeEval, RangeEvalOpt,
// EqualityEval).  This header holds their bodies as templates over an
// `Engine` so the same control flow — and therefore the same bitmap-scan and
// bitmap-operation counts the cost-model audit (obs/audit.h) predicts — can
// drive two very different backends:
//
//  * the dense recording engine in core/eval.cc, which captures the
//    operation DAG into a small program that is then replayed
//    segment-at-a-time on the calling thread, and
//  * the compressed-domain engine in exec/wah_engine.cc, which runs each
//    operation on WAH code words or dense words, chosen per operand.
//
// An Engine provides:
//   using Vec = ...;              // default-constructible, copyable, movable,
//                                 // with AndWith/OrWith/XorWith/NotInPlace
//   const BitmapSource& source(); // metadata (base, encoding, cardinality)
//   EvalStats* stats();           // may be nullptr
//   Vec Fetch(int component, uint32_t slot);  // counts one bitmap scan
//   Vec Zeros(); Vec Ones(); Vec NonNull();   // constants (no scan)
//   Vec OrMany(std::vector<Vec> operands);    // k-ary OR, no ops counted
//
// Operation counting stays in the shared template code (OpCounter below), so
// both engines report identical EvalStats by construction.  OrMany lets the
// compressed engine fold EqualityEval's OR-sides into one accumulator
// (bitmap/wah_kernels.h); OrManyCounted charges the same `k-1` OR operations
// the pairwise fold would, keeping the audit exact.

#ifndef BIX_CORE_EVAL_ALGORITHMS_H_
#define BIX_CORE_EVAL_ALGORITHMS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/base_sequence.h"
#include "core/bitmap_source.h"
#include "core/check.h"
#include "core/eval_stats.h"
#include "core/predicate.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace bix::eval_detail {

// Counts logical bitmap operations into an optional EvalStats, attributes
// them to the live profiler span, and emits an instant trace event per
// operation when tracing is on (each disabled path is one relaxed atomic
// load per operation).  Both engines count through here, so EvalStats,
// the registry, and the profile agree by construction.
struct OpCounter {
  EvalStats* stats;
  void And() const {
    if (stats != nullptr) ++stats->and_ops;
    obs::ProfCount(obs::ProfCounter::kAndOps);
    if (obs::Tracer::enabled()) obs::RecordInstant("op", "AND");
  }
  void Or() const {
    if (stats != nullptr) ++stats->or_ops;
    obs::ProfCount(obs::ProfCounter::kOrOps);
    if (obs::Tracer::enabled()) obs::RecordInstant("op", "OR");
  }
  void Xor() const {
    if (stats != nullptr) ++stats->xor_ops;
    obs::ProfCount(obs::ProfCounter::kXorOps);
    if (obs::Tracer::enabled()) obs::RecordInstant("op", "XOR");
  }
  void Not() const {
    if (stats != nullptr) ++stats->not_ops;
    obs::ProfCount(obs::ProfCounter::kNotOps);
    if (obs::Tracer::enabled()) obs::RecordInstant("op", "NOT");
  }
};

template <typename Engine>
typename Engine::Vec TrivialResult(Engine& eng, bool all) {
  return all ? eng.NonNull() : eng.Zeros();
}

// Result for a predicate constant outside [0, C): every comparison is
// decided without touching the index (0 scans, 0 operations).
template <typename Engine>
typename Engine::Vec OutOfDomainResult(Engine& eng, CompareOp op, int64_t v) {
  bool all;
  if (v < 0) {
    all = (op == CompareOp::kGt || op == CompareOp::kGe ||
           op == CompareOp::kNe);
  } else {  // v >= C
    all = (op == CompareOp::kLt || op == CompareOp::kLe ||
           op == CompareOp::kNe);
  }
  return TrivialResult(eng, all);
}

inline bool InDomain(const BitmapSource& src, int64_t v) {
  return v >= 0 && v < static_cast<int64_t>(src.cardinality());
}

// Fetches an equality-encoded digit bitmap E^d, deriving E^0 = NOT E^1 for
// base-2 components (which store only E^1).
template <typename Engine>
typename Engine::Vec FetchEq(Engine& eng, int component, uint32_t d,
                             const OpCounter& ops) {
  uint32_t b = eng.source().base().base(component);
  if (b == 2) {
    typename Engine::Vec e1 = eng.Fetch(component, 0);
    if (d == 0) {
      e1.NotInPlace();
      ops.Not();
    }
    return e1;
  }
  return eng.Fetch(component, d);
}

// k-ary OR charged as the k-1 pairwise ORs the folded form would cost.
template <typename Engine>
typename Engine::Vec OrManyCounted(Engine& eng,
                                   std::vector<typename Engine::Vec> operands,
                                   const OpCounter& ops) {
  for (size_t k = 1; k < operands.size(); ++k) ops.Or();
  return eng.OrMany(std::move(operands));
}

template <typename Engine>
typename Engine::Vec RangeEvalOptImpl(Engine& eng, CompareOp op, int64_t v) {
  using Vec = typename Engine::Vec;
  const BitmapSource& src = eng.source();
  BIX_CHECK_MSG(src.encoding() == Encoding::kRange,
                "RangeEval-Opt requires a range-encoded index");
  if (!InDomain(src, v)) return OutOfDomainResult(eng, op, v);
  const BaseSequence& base = src.base();
  const int n = base.num_components();
  OpCounter ops{eng.stats()};

  Vec b;
  bool negate;
  if (IsRangeOp(op)) {
    // Rewrite in terms of <=:  A < v == A <= v-1;  A > v == not(A <= v);
    // A >= v == not(A <= v-1).
    int64_t w = v;
    if (op == CompareOp::kLt || op == CompareOp::kGe) --w;
    negate = (op == CompareOp::kGt || op == CompareOp::kGe);
    if (w < 0) {
      // A <= -1 is empty: `<` yields nothing, `>=` yields all non-null rows.
      return TrivialResult(eng, negate);
    }
    std::vector<uint32_t> digits = base.Decompose(static_cast<uint64_t>(w));
    b = eng.Ones();
    // Component 1 (least significant): B = B^{w_1} unless w_1 = b_1 - 1
    // (implicit all-ones).  Assignment, not an operation.
    if (digits[0] < base.base(0) - 1) b = eng.Fetch(0, digits[0]);
    for (int i = 1; i < n; ++i) {
      uint32_t bi = base.base(i);
      uint32_t wi = digits[static_cast<size_t>(i)];
      if (wi != bi - 1) {
        b.AndWith(eng.Fetch(i, wi));
        ops.And();
      }
      if (wi != 0) {
        b.OrWith(eng.Fetch(i, wi - 1));
        ops.Or();
      }
    }
  } else {
    // Equality path: per component AND one digit-equality term.
    negate = (op == CompareOp::kNe);
    std::vector<uint32_t> digits = base.Decompose(static_cast<uint64_t>(v));
    b = eng.Ones();
    for (int i = 0; i < n; ++i) {
      uint32_t bi = base.base(i);
      uint32_t vi = digits[static_cast<size_t>(i)];
      if (vi == 0) {
        b.AndWith(eng.Fetch(i, 0));
        ops.And();
      } else if (vi == bi - 1) {
        Vec t = eng.Fetch(i, bi - 2);
        t.NotInPlace();
        ops.Not();
        b.AndWith(t);
        ops.And();
      } else {
        Vec hi = eng.Fetch(i, vi);
        hi.XorWith(eng.Fetch(i, vi - 1));
        ops.Xor();
        b.AndWith(hi);
        ops.And();
      }
    }
  }

  if (negate) {
    b.NotInPlace();
    ops.Not();
  }
  b.AndWith(eng.NonNull());
  ops.And();
  return b;
}

template <typename Engine>
typename Engine::Vec RangeEvalImpl(Engine& eng, CompareOp op, int64_t v) {
  using Vec = typename Engine::Vec;
  const BitmapSource& src = eng.source();
  BIX_CHECK_MSG(src.encoding() == Encoding::kRange,
                "RangeEval requires a range-encoded index");
  if (!InDomain(src, v)) return OutOfDomainResult(eng, op, v);
  const BaseSequence& base = src.base();
  const int n = base.num_components();
  OpCounter ops{eng.stats()};

  const bool need_lt = (op == CompareOp::kLt || op == CompareOp::kLe);
  const bool need_gt = (op == CompareOp::kGt || op == CompareOp::kGe);

  std::vector<uint32_t> digits = base.Decompose(static_cast<uint64_t>(v));
  Vec b_eq = eng.NonNull();  // line 2: B_EQ = B_nn (not a scan)
  Vec b_lt = need_lt ? eng.Zeros() : Vec();
  Vec b_gt = need_gt ? eng.Zeros() : Vec();

  for (int i = n - 1; i >= 0; --i) {
    uint32_t bi = base.base(i);
    uint32_t vi = digits[static_cast<size_t>(i)];
    if (vi > 0) {
      // lo = B^{v_i - 1}, shared by the LT accumulation and the equality
      // term (XOR when v_i < b_i - 1, complement otherwise); fetched once.
      Vec lo = eng.Fetch(i, vi - 1);
      if (need_lt) {
        Vec t = lo;
        t.AndWith(b_eq);
        ops.And();
        b_lt.OrWith(t);
        ops.Or();
      }
      if (vi < bi - 1) {
        Vec hi = eng.Fetch(i, vi);
        if (need_gt) {
          Vec t = hi;
          t.NotInPlace();
          ops.Not();
          t.AndWith(b_eq);
          ops.And();
          b_gt.OrWith(t);
          ops.Or();
        }
        hi.XorWith(lo);
        ops.Xor();
        b_eq.AndWith(hi);
        ops.And();
      } else {
        // v_i == b_i - 1: equality term is NOT B^{b_i - 2} (== lo).
        lo.NotInPlace();
        ops.Not();
        b_eq.AndWith(lo);
        ops.And();
      }
    } else {  // v_i == 0
      Vec z = eng.Fetch(i, 0);
      if (need_gt) {
        Vec t = z;
        t.NotInPlace();
        ops.Not();
        t.AndWith(b_eq);
        ops.And();
        b_gt.OrWith(t);
        ops.Or();
      }
      b_eq.AndWith(z);
      ops.And();
    }
  }

  switch (op) {
    case CompareOp::kLt:
      return b_lt;
    case CompareOp::kLe:
      b_lt.OrWith(b_eq);
      ops.Or();
      return b_lt;
    case CompareOp::kGt:
      return b_gt;
    case CompareOp::kGe:
      b_gt.OrWith(b_eq);
      ops.Or();
      return b_gt;
    case CompareOp::kEq:
      return b_eq;
    case CompareOp::kNe:
      b_eq.NotInPlace();
      ops.Not();
      b_eq.AndWith(eng.NonNull());
      ops.And();
      return b_eq;
  }
  BIX_CHECK(false);
  return Vec();
}

template <typename Engine>
typename Engine::Vec EqualityEvalImpl(Engine& eng, CompareOp op, int64_t v) {
  using Vec = typename Engine::Vec;
  const BitmapSource& src = eng.source();
  BIX_CHECK_MSG(src.encoding() == Encoding::kEquality,
                "EqualityEval requires an equality-encoded index");
  if (!InDomain(src, v)) return OutOfDomainResult(eng, op, v);
  const BaseSequence& base = src.base();
  const int n = base.num_components();
  OpCounter ops{eng.stats()};

  Vec b;
  bool negate;
  if (!IsRangeOp(op)) {
    // Equality path: AND the per-digit equality bitmaps (1 scan/component).
    negate = (op == CompareOp::kNe);
    std::vector<uint32_t> digits = base.Decompose(static_cast<uint64_t>(v));
    b = FetchEq(eng, 0, digits[0], ops);
    for (int i = 1; i < n; ++i) {
      b.AndWith(FetchEq(eng, i, digits[static_cast<size_t>(i)], ops));
      ops.And();
    }
  } else {
    // Range path via A <= w, digit-recursive: B := (digit_1 <= w_1);
    // then B := LT_i OR (EQ_i AND B) for i = 2..n.  For each per-digit
    // "less-than" the cheaper of the direct OR and the complemented OR of
    // the opposite side is used (the complement side reuses the already
    // fetched EQ bitmap), so a component costs 1 + min(d, b-1-d) scans.
    // The OR accumulations collect their operands and go through the
    // engine's k-ary OrMany (fused on the compressed backend), charged as
    // the same k-1 pairwise ORs by OrManyCounted.
    int64_t w = v;
    if (op == CompareOp::kLt || op == CompareOp::kGe) --w;
    negate = (op == CompareOp::kGt || op == CompareOp::kGe);
    if (w < 0) return TrivialResult(eng, negate);
    std::vector<uint32_t> digits = base.Decompose(static_cast<uint64_t>(w));

    // Component 1: B = (digit <= w_1).
    uint32_t b0 = base.base(0);
    uint32_t d0 = digits[0];
    if (d0 == b0 - 1) {
      b = eng.Ones();
    } else if (b0 == 2) {
      // d0 == 0: digit <= 0 is NOT E^1.
      b = eng.Fetch(0, 0);
      b.NotInPlace();
      ops.Not();
    } else if (d0 + 1 <= b0 - 1 - d0) {
      std::vector<Vec> terms;
      terms.reserve(d0 + 1);
      for (uint32_t k = 0; k <= d0; ++k) terms.push_back(eng.Fetch(0, k));
      b = OrManyCounted(eng, std::move(terms), ops);
    } else {
      std::vector<Vec> terms;
      terms.reserve(b0 - 1 - d0);
      for (uint32_t k = d0 + 1; k < b0; ++k) terms.push_back(eng.Fetch(0, k));
      b = OrManyCounted(eng, std::move(terms), ops);
      b.NotInPlace();
      ops.Not();
    }

    for (int i = 1; i < n; ++i) {
      uint32_t bi = base.base(i);
      uint32_t d = digits[static_cast<size_t>(i)];
      if (bi == 2) {
        Vec e1 = eng.Fetch(i, 0);
        if (d == 0) {
          // LT empty; EQ = NOT E^1.
          e1.NotInPlace();
          ops.Not();
          b.AndWith(e1);
          ops.And();
        } else {
          // B = (NOT E^1) OR (E^1 AND B).
          b.AndWith(e1);
          ops.And();
          e1.NotInPlace();
          ops.Not();
          b.OrWith(e1);
          ops.Or();
        }
        continue;
      }
      Vec eq = eng.Fetch(i, d);
      if (d == 0) {
        b.AndWith(eq);
        ops.And();
        continue;
      }
      Vec lt;
      if (d <= bi - 1 - d) {
        std::vector<Vec> terms;
        terms.reserve(d);
        for (uint32_t k = 0; k < d; ++k) terms.push_back(eng.Fetch(i, k));
        lt = OrManyCounted(eng, std::move(terms), ops);
      } else {
        // Start the GE accumulation from the shared EQ bitmap.
        std::vector<Vec> terms;
        terms.reserve(bi - d);
        terms.push_back(eq);
        for (uint32_t k = d + 1; k < bi; ++k) terms.push_back(eng.Fetch(i, k));
        lt = OrManyCounted(eng, std::move(terms), ops);
        lt.NotInPlace();
        ops.Not();
      }
      b.AndWith(eq);
      ops.And();
      b.OrWith(lt);
      ops.Or();
    }
  }

  if (negate) {
    b.NotInPlace();
    ops.Not();
  }
  b.AndWith(eng.NonNull());
  ops.And();
  return b;
}

}  // namespace bix::eval_detail

#endif  // BIX_CORE_EVAL_ALGORITHMS_H_
