#include "exec/wah_engine.h"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "bitmap/wah_kernels.h"
#include "core/check.h"
#include "core/cost_model.h"
#include "core/eval_algorithms.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace bix::exec {

namespace {

// How many logical bitmap operations ran on the compressed form vs fell back
// to dense words, and how many operands were inflated (each at its first
// dense use).
// Together with eval.{and,or,xor,not}_ops these show what fraction of a
// workload actually executed compressed.
obs::Counter& CompressedOps() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("wah_engine.compressed_ops");
  return c;
}
obs::Counter& PlainOps() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("wah_engine.plain_ops");
  return c;
}
obs::Counter& InflatedOperands() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "wah_engine.inflated_operands");
  return c;
}

// kAuto keeps a fetched operand compressed iff its WAH form is at most
// 1/kAutoKeepDenominator of its dense form.  1/32 is what the op-timing
// calibration this rule replaced installed on every measured perfbench
// cold_sorted seed: its per-byte break-even (11.4–13.3 permille) sat below
// its 1/32 clamp.  A fixed 1/4 ran that workload slower (DESIGN.md §9).  The
// rule reads nothing but the operand, so the decision is the same in every
// process and for every source.
constexpr size_t kAutoKeepDenominator = 32;

// The engine's operand, in one of three forms decided per operand at fetch
// time:
//  * kept compressed (the keep rule holds): compressed x compressed
//    operations stay in the compressed domain;
//  * dense on use (a WAH operand the keep rule refuses): held as code words
//    until its first dense use, where it inflates once, in place.  A k-ary
//    OR folds it straight from its code words and never inflates it;
//  * dense.
// Anything touching a dense or dense-on-use operand runs on dense words.
// Inflating in place changes the form, never the value, so the form is
// mutable: a copy of a dense-on-use operand inflates the source first (the
// templates copy an operand only to go on using both copies densely), and a
// dense-on-use right-hand side inflates where it stands, once for all its
// uses.
class WahVec {
 public:
  WahVec() = default;
  WahVec(const WahVec& o) { CopyFrom(o); }
  WahVec& operator=(const WahVec& o) {
    if (this != &o) CopyFrom(o);
    return *this;
  }
  WahVec(WahVec&&) = default;
  WahVec& operator=(WahVec&&) = default;

  static WahVec Wah(WahBitvector w) { return Coded(Repr::kWah, std::move(w)); }
  static WahVec DenseOnUse(WahBitvector w) {
    return Coded(Repr::kDenseOnUse, std::move(w));
  }
  static WahVec Dense(Bitvector d) {
    WahVec v;
    v.repr_ = Repr::kDense;
    v.dense_ = std::move(d);
    return v;
  }

  /// True while the operand is code words (kept compressed or dense on use).
  bool has_code_words() const {
    return repr_ == Repr::kWah || repr_ == Repr::kDenseOnUse;
  }
  const WahBitvector& wah() const { return wah_; }
  const Bitvector& dense() const { return dense_; }

  void AndWith(const WahVec& o) { Binary(o, Op::kAnd); }
  void OrWith(const WahVec& o) { Binary(o, Op::kOr); }
  void XorWith(const WahVec& o) { Binary(o, Op::kXor); }
  void NotInPlace() {
    BIX_CHECK(repr_ != Repr::kNull);
    if (repr_ == Repr::kWah) {
      wah_ = wah_.Not();
      CompressedOps().Increment();
      obs::ProfCount(obs::ProfCounter::kWahCompressedOps);
    } else {
      Densify();
      dense_.NotInPlace();
      PlainOps().Increment();
      obs::ProfCount(obs::ProfCounter::kWahPlainOps);
    }
  }

  /// The dense result (inflating once if still compressed).
  Bitvector IntoDense() && {
    BIX_CHECK(repr_ != Repr::kNull);
    if (repr_ == Repr::kDenseOnUse) Densify();
    if (repr_ == Repr::kWah) return wah_.ToBitvector();
    return std::move(dense_);
  }

  /// The compressed result (compressing once if held dense).
  WahBitvector IntoWah() && {
    BIX_CHECK(repr_ != Repr::kNull);
    if (has_code_words()) return std::move(wah_);
    return WahBitvector::FromBitvector(dense_);
  }

 private:
  enum class Repr : uint8_t { kNull, kWah, kDenseOnUse, kDense };
  enum class Op : uint8_t { kAnd, kOr, kXor };

  static WahVec Coded(Repr repr, WahBitvector w) {
    WahVec v;
    v.repr_ = repr;
    v.wah_ = std::move(w);
    return v;
  }

  void CopyFrom(const WahVec& o) {
    if (o.repr_ == Repr::kDenseOnUse) o.Densify();
    repr_ = o.repr_;
    wah_ = o.wah_;
    dense_ = o.dense_;
  }

  // Inflates a compressed or dense-on-use operand in place, counted as one
  // inflated operand.
  void Densify() const {
    if (!has_code_words()) return;
    dense_ = wah_.ToBitvector();
    wah_ = WahBitvector();
    repr_ = Repr::kDense;
    InflatedOperands().Increment();
  }

  void Binary(const WahVec& o, Op op) {
    BIX_CHECK(repr_ != Repr::kNull && o.repr_ != Repr::kNull);
    if (repr_ == Repr::kWah && o.repr_ == Repr::kWah) {
      switch (op) {
        case Op::kAnd:
          wah_ = WahBitvector::And(wah_, o.wah_);
          break;
        case Op::kOr:
          wah_ = WahBitvector::Or(wah_, o.wah_);
          break;
        case Op::kXor:
          wah_ = WahBitvector::Xor(wah_, o.wah_);
          break;
      }
      CompressedOps().Increment();
      obs::ProfCount(obs::ProfCounter::kWahCompressedOps);
      return;
    }
    Densify();
    if (o.repr_ == Repr::kDenseOnUse) o.Densify();
    // A kept-compressed right-hand side stays compressed for its later
    // compressed uses: inflate a temporary rather than the operand.
    const Bitvector* rhs = &o.dense_;
    Bitvector inflated;
    if (o.repr_ == Repr::kWah) {
      inflated = o.wah_.ToBitvector();
      rhs = &inflated;
      InflatedOperands().Increment();
    }
    switch (op) {
      case Op::kAnd:
        dense_.AndWith(*rhs);
        break;
      case Op::kOr:
        dense_.OrWith(*rhs);
        break;
      case Op::kXor:
        dense_.XorWith(*rhs);
        break;
    }
    PlainOps().Increment();
    obs::ProfCount(obs::ProfCounter::kWahPlainOps);
  }

  mutable Repr repr_ = Repr::kNull;
  mutable WahBitvector wah_;
  mutable Bitvector dense_;
};

// The compressed-domain backend for the shared algorithm templates; see the
// engine concept in core/eval_algorithms.h.
class WahEngine {
 public:
  using Vec = WahVec;

  WahEngine(const BitmapSource& src, EvalStats* stats)
      : src_(src), stats_(stats) {}

  const BitmapSource& source() const { return src_; }
  EvalStats* stats() const { return stats_; }

  Vec Fetch(int component, uint32_t slot) {
    const WahBitvector* wah = src_.FetchWah(component, slot, stats_);
    if (wah == nullptr) {
      // No compressed representation: fall back to a dense fetch (which
      // counts the one bitmap scan; FetchWah counted nothing).  A
      // dense-stored operand is never compressed on fetch.
      return WahVec::Dense(src_.Fetch(component, slot, stats_));
    }
    if (KeepCompressed(*wah)) return WahVec::Wah(*wah);
    return WahVec::DenseOnUse(*wah);
  }

  Vec Zeros() const {
    return WahVec::Wah(WahBitvector::Fill(src_.num_records(), false));
  }
  Vec Ones() const {
    return WahVec::Wah(WahBitvector::Fill(src_.num_records(), true));
  }
  Vec NonNull() const {
    // B_nn follows the fetched operands' rule: a dense-storing source has no
    // compressed B_nn, and a compressed one is kept only if it pays.
    const WahBitvector* cached = src_.NonNullWah();
    if (cached != nullptr && KeepCompressed(*cached)) {
      return WahVec::Wah(*cached);
    }
    return WahVec::Dense(src_.non_null());
  }

  Vec OrMany(std::vector<Vec> operands) {
    BIX_CHECK(!operands.empty());
    if (operands.size() == 1) return std::move(operands[0]);
    // Every operand still in code words (kept compressed or dense on use)
    // is folded from them without being inflated (bitmap/wah_kernels.h);
    // dense operands are ORed in word by word.  The ops count as compressed
    // only when no operand was dense.  Either way the result stays dense
    // (EvaluateToWah re-compresses it in IntoWah at the very end).
    std::vector<const WahBitvector*> wah;
    std::vector<const Bitvector*> dense;
    for (const Vec& o : operands) {
      if (o.has_code_words()) {
        wah.push_back(&o.wah());
      } else {
        dense.push_back(&o.dense());
      }
    }
    const int64_t fused_ops = static_cast<int64_t>(operands.size()) - 1;
    if (dense.empty()) {
      CompressedOps().Increment(fused_ops);
      obs::ProfCount(obs::ProfCounter::kWahCompressedOps, fused_ops);
      return WahVec::Dense(DenseOrOfMany(wah));
    }
    Bitvector acc = wah.empty() ? *dense.back() : DenseOrOfMany(wah);
    if (wah.empty()) dense.pop_back();
    for (const Bitvector* d : dense) acc.OrWith(*d);
    PlainOps().Increment(fused_ops);
    obs::ProfCount(obs::ProfCounter::kWahPlainOps, fused_ops);
    return WahVec::Dense(std::move(acc));
  }

 private:
  bool KeepCompressed(const WahBitvector& w) const {
    const size_t dense_bytes = ((src_.num_records() + 63) / 64) * 8;
    return w.SizeInBytes() * kAutoKeepDenominator <= dense_bytes;
  }

  const BitmapSource& src_;
  EvalStats* stats_;
};

WahVec RunAlgorithm(const BitmapSource& source, EvalAlgorithm algorithm,
                    CompareOp op, int64_t v, EvalStats* stats) {
  WahEngine eng(source, stats);
  switch (algorithm) {
    case EvalAlgorithm::kRangeEval:
      return eval_detail::RangeEvalImpl(eng, op, v);
    case EvalAlgorithm::kRangeEvalOpt:
      return eval_detail::RangeEvalOptImpl(eng, op, v);
    case EvalAlgorithm::kEqualityEval:
      return eval_detail::EqualityEvalImpl(eng, op, v);
    case EvalAlgorithm::kAuto:
      break;
  }
  BIX_CHECK(false);
  return WahVec();
}

// Shared trace/metrics envelope, mirroring the dense one in core/eval.cc; `finish` turns the engine's result into the caller's form.
template <typename Finish>
auto Evaluate(const BitmapSource& source, EvalAlgorithm algorithm,
              CompareOp op, int64_t v, EvalStats* stats, Finish finish) {
  algorithm = ResolveAlgorithm(source.encoding(), algorithm);
  EvalStats local;
  EvalStats* s = stats != nullptr ? stats : &local;
  const EvalStats before = *s;

  obs::TraceSpan span("eval", ToString(algorithm).data());
  span.set_value(v);
  if (span.active()) {
    span.set_detail(std::string(ToString(op)) + " engine=auto");
  }
  obs::ProfSpan prof("eval", ToString(algorithm));

  const auto start = std::chrono::steady_clock::now();
  WahVec result = RunAlgorithm(source, algorithm, op, v, s);
  auto finished = finish(std::move(result));
  const int64_t latency_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();

  eval_internal::RecordQueryMetrics(EvalStats::Delta(*s, before), latency_ns);
  return finished;
}

}  // namespace

Bitvector EvaluatePredicateCompressed(const BitmapSource& source,
                                      EvalAlgorithm algorithm, CompareOp op,
                                      int64_t v, EvalStats* stats) {
  return Evaluate(source, algorithm, op, v, stats,
                  [](WahVec r) { return std::move(r).IntoDense(); });
}

WahBitvector EvaluateToWah(const BitmapSource& source, EvalAlgorithm algorithm,
                           CompareOp op, int64_t v, EngineKind engine,
                           EvalStats* stats) {
  BIX_CHECK(engine == EngineKind::kAuto);
  return Evaluate(source, algorithm, op, v, stats,
                  [](WahVec r) { return std::move(r).IntoWah(); });
}

}  // namespace bix::exec
