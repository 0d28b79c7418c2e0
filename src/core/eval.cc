#include "core/eval.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/cost_model.h"
#include "core/eval_algorithms.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace bix {

namespace {

using Op = EvalInstr::Op;

class Recorder;

// The recording engine's vector type: a handle that forwards the algorithm's
// bitvector operations to the Recorder as emitted instructions instead of
// executing them.  A handle is either a zero-copy reference to a fetched
// input (copies are free; the first mutation loads it into a register) or a
// virtual register of the program under construction.
class RegHandle {
 public:
  RegHandle() = default;
  RegHandle(Recorder* recorder, int32_t id, bool is_input)
      : recorder_(recorder), id_(id), is_input_(is_input) {}

  RegHandle(const RegHandle& other);
  RegHandle& operator=(const RegHandle& other);
  RegHandle(RegHandle&& other) noexcept { Steal(other); }
  RegHandle& operator=(RegHandle&& other) noexcept {
    if (this != &other) Steal(other);
    return *this;
  }

  void AndWith(const RegHandle& other) { Apply(Op::kAnd, other); }
  void OrWith(const RegHandle& other) { Apply(Op::kOr, other); }
  void XorWith(const RegHandle& other) { Apply(Op::kXor, other); }
  void NotInPlace();

 private:
  friend class Recorder;

  void Steal(RegHandle& other) {
    recorder_ = other.recorder_;
    id_ = other.id_;
    is_input_ = other.is_input_;
    other.recorder_ = nullptr;
    other.id_ = -1;
  }

  // Ensures this handle names a mutable register (loading the input it
  // referenced, if any), then emits `op` against `other` as operand.
  void Apply(Op op, const RegHandle& other);
  void EnsureRegister();

  Recorder* recorder_ = nullptr;
  int32_t id_ = -1;
  bool is_input_ = false;
};

// Engine backend for the algorithm templates (core/eval_algorithms.h) that
// builds an EvalProgram instead of touching full-length bitmaps.  Scans are
// counted here (by the underlying FetchView/Fetch), operations are counted
// by the shared template code at emission time, so a recording's EvalStats
// are those the algorithm defines.
class Recorder {
 public:
  using Vec = RegHandle;

  Recorder(const BitmapSource& src, EvalStats* stats)
      : src_(src), stats_(stats) {
    program_.num_bits = src.num_records();
  }

  const BitmapSource& source() const { return src_; }
  EvalStats* stats() const { return stats_; }

  Vec Fetch(int component, uint32_t slot) {
    const Bitvector* view = src_.FetchView(component, slot, stats_);
    if (view == nullptr) {
      // Source cannot expose storage: stage one owned copy (still exactly
      // one Fetch — one scan — per call).  deque keeps addresses stable.
      program_.owned_inputs.push_back(src_.Fetch(component, slot, stats_));
      view = &program_.owned_inputs.back();
    }
    return AddInput(view);
  }

  Vec Zeros() { return NewConst(Op::kZeros); }
  Vec Ones() { return NewConst(Op::kOnes); }
  Vec NonNull() { return AddInput(&src_.non_null()); }

  Vec OrMany(std::vector<Vec> operands) {
    BIX_CHECK(!operands.empty());
    Vec acc = std::move(operands[0]);
    for (size_t k = 1; k < operands.size(); ++k) acc.OrWith(operands[k]);
    return acc;
  }

  /// Consumes the recording: finalizes (dead-code elimination + scratch-slot
  /// assignment) and returns the program.
  EvalProgram Finish(RegHandle result);

  // RegHandle plumbing.
  int32_t NewRegister() { return num_virtual_regs_++; }
  void Emit(Op op, int32_t dst, int32_t src = -1, bool src_is_input = false) {
    program_.instrs.push_back(EvalInstr{op, dst, src, src_is_input});
  }

 private:
  Vec AddInput(const Bitvector* bitmap) {
    BIX_CHECK(bitmap->size() == program_.num_bits);
    program_.inputs.push_back(bitmap);
    return Vec(this, static_cast<int32_t>(program_.inputs.size()) - 1, true);
  }

  Vec NewConst(Op op) {
    int32_t reg = NewRegister();
    Emit(op, reg);
    return Vec(this, reg, false);
  }

  void Finalize(int32_t result_virtual_reg);

  const BitmapSource& src_;
  EvalStats* stats_;
  EvalProgram program_;
  int32_t num_virtual_regs_ = 0;
};

RegHandle::RegHandle(const RegHandle& other)
    : recorder_(other.recorder_), id_(other.id_), is_input_(other.is_input_) {
  // Copying an input reference is free; copying a register value must
  // preserve the original, so it snapshots into a fresh register.
  if (recorder_ != nullptr && !is_input_) {
    int32_t reg = recorder_->NewRegister();
    recorder_->Emit(Op::kMov, reg, id_, false);
    id_ = reg;
  }
}

[[maybe_unused]] RegHandle& RegHandle::operator=(const RegHandle& other) {
  if (this == &other) return *this;
  RegHandle copy(other);
  Steal(copy);
  return *this;
}

void RegHandle::EnsureRegister() {
  BIX_CHECK(recorder_ != nullptr && id_ >= 0);
  if (!is_input_) return;
  int32_t reg = recorder_->NewRegister();
  recorder_->Emit(Op::kLoad, reg, id_, true);
  id_ = reg;
  is_input_ = false;
}

void RegHandle::Apply(Op op, const RegHandle& other) {
  BIX_CHECK(other.recorder_ == recorder_ && other.id_ >= 0);
  EnsureRegister();
  recorder_->Emit(op, id_, other.id_, other.is_input_);
}

void RegHandle::NotInPlace() {
  EnsureRegister();
  recorder_->Emit(Op::kNot, id_);
}

EvalProgram Recorder::Finish(RegHandle result) {
  BIX_CHECK(result.recorder_ == this && result.id_ >= 0);
  if (result.is_input_) {
    program_.result_input = result.id_;
    program_.instrs.clear();
    program_.num_regs = 0;
  } else {
    Finalize(result.id_);
  }
  return std::move(program_);
}

// Two passes over the instruction list: backward liveness to drop emitted
// but unused work (e.g. the provisional all-ones accumulator RangeEvalOpt
// overwrites, or RangeEval's unreturned LT/GT side), then a forward
// interval scan that packs virtual registers into the fewest scratch slots
// so the replay working set stays cache-sized regardless of query shape.
void Recorder::Finalize(int32_t result_virtual_reg) {
  std::vector<EvalInstr>& instrs = program_.instrs;
  const size_t n = instrs.size();
  const size_t num_virtual = static_cast<size_t>(num_virtual_regs_);

  std::vector<char> live(num_virtual, 0);
  std::vector<char> keep(n, 0);
  live[static_cast<size_t>(result_virtual_reg)] = 1;
  for (size_t i = n; i-- > 0;) {
    const EvalInstr& ins = instrs[i];
    if (!live[static_cast<size_t>(ins.dst)]) continue;
    keep[i] = 1;
    const bool overwrites_dst = ins.op == Op::kLoad || ins.op == Op::kZeros ||
                                ins.op == Op::kOnes || ins.op == Op::kMov;
    if (overwrites_dst) live[static_cast<size_t>(ins.dst)] = 0;
    if (ins.src >= 0 && !ins.src_is_input) {
      live[static_cast<size_t>(ins.src)] = 1;
    }
  }
  std::vector<EvalInstr> kept;
  kept.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) kept.push_back(instrs[i]);
  }

  // Interval end per virtual register (result lives past the last instr).
  std::vector<int32_t> last_use(num_virtual, -1);
  for (size_t i = 0; i < kept.size(); ++i) {
    last_use[static_cast<size_t>(kept[i].dst)] = static_cast<int32_t>(i);
    if (kept[i].src >= 0 && !kept[i].src_is_input) {
      last_use[static_cast<size_t>(kept[i].src)] = static_cast<int32_t>(i);
    }
  }
  last_use[static_cast<size_t>(result_virtual_reg)] =
      static_cast<int32_t>(kept.size());

  std::vector<int32_t> slot_of(num_virtual, -1);
  std::vector<int32_t> free_slots;
  int32_t num_slots = 0;
  auto assign = [&](int32_t reg) {
    if (slot_of[static_cast<size_t>(reg)] >= 0) return;
    if (free_slots.empty()) {
      slot_of[static_cast<size_t>(reg)] = num_slots++;
    } else {
      slot_of[static_cast<size_t>(reg)] = free_slots.back();
      free_slots.pop_back();
    }
  };
  for (size_t i = 0; i < kept.size(); ++i) {
    EvalInstr& ins = kept[i];
    const int32_t dst_reg = ins.dst;
    const int32_t src_reg = (ins.src >= 0 && !ins.src_is_input) ? ins.src : -1;
    assign(dst_reg);
    if (src_reg >= 0) assign(src_reg);
    ins.dst = slot_of[static_cast<size_t>(dst_reg)];
    if (src_reg >= 0) ins.src = slot_of[static_cast<size_t>(src_reg)];
    const int32_t pos = static_cast<int32_t>(i);
    if (last_use[static_cast<size_t>(dst_reg)] == pos) {
      free_slots.push_back(ins.dst);
    }
    if (src_reg >= 0 && src_reg != dst_reg &&
        last_use[static_cast<size_t>(src_reg)] == pos) {
      free_slots.push_back(ins.src);
    }
  }

  program_.result_reg = slot_of[static_cast<size_t>(result_virtual_reg)];
  program_.num_regs = num_slots;
  instrs = std::move(kept);
}

constexpr size_t kWordsPerSeg = (size_t{1} << kSegmentBits) / 64;

// Replays the program over words [w0, w0 + len) using `scratch`.
// `tail_mask` applies when this segment contains the vector's final partial
// word: NOT and ONES clear the bits past num_bits there, keeping the
// Bitvector tail invariant (AND/OR/XOR preserve clear tails on their own).
void RunSegment(const EvalProgram& p, uint64_t* scratch, size_t w0,
                size_t len, bool has_tail, uint64_t tail_mask,
                uint64_t* out_words) {
  for (const EvalInstr& ins : p.instrs) {
    uint64_t* dst = scratch + static_cast<size_t>(ins.dst) * kWordsPerSeg;
    const uint64_t* src = nullptr;
    if (ins.src >= 0) {
      src = ins.src_is_input
                ? p.inputs[static_cast<size_t>(ins.src)]->words().data() + w0
                : scratch + static_cast<size_t>(ins.src) * kWordsPerSeg;
    }
    switch (ins.op) {
      case Op::kLoad:
      case Op::kMov:
        std::memcpy(dst, src, len * sizeof(uint64_t));
        break;
      case Op::kZeros:
        std::memset(dst, 0, len * sizeof(uint64_t));
        break;
      case Op::kOnes:
        std::memset(dst, 0xFF, len * sizeof(uint64_t));
        if (has_tail) dst[len - 1] = tail_mask;
        break;
      case Op::kAnd:
        for (size_t w = 0; w < len; ++w) dst[w] &= src[w];
        break;
      case Op::kOr:
        for (size_t w = 0; w < len; ++w) dst[w] |= src[w];
        break;
      case Op::kXor:
        for (size_t w = 0; w < len; ++w) dst[w] ^= src[w];
        break;
      case Op::kNot:
        for (size_t w = 0; w < len; ++w) dst[w] = ~dst[w];
        if (has_tail) dst[len - 1] &= tail_mask;
        break;
    }
  }
  std::memcpy(out_words + w0,
              scratch + static_cast<size_t>(p.result_reg) * kWordsPerSeg,
              len * sizeof(uint64_t));
}

}  // namespace

EvalProgram RecordEvalProgram(const BitmapSource& source,
                              EvalAlgorithm algorithm, CompareOp op, int64_t v,
                              EvalStats* stats) {
  Recorder recorder(source, stats);
  RegHandle result;
  switch (ResolveAlgorithm(source.encoding(), algorithm)) {
    case EvalAlgorithm::kRangeEval:
      result = eval_detail::RangeEvalImpl(recorder, op, v);
      break;
    case EvalAlgorithm::kRangeEvalOpt:
      result = eval_detail::RangeEvalOptImpl(recorder, op, v);
      break;
    case EvalAlgorithm::kEqualityEval:
      result = eval_detail::EqualityEvalImpl(recorder, op, v);
      break;
    case EvalAlgorithm::kAuto:
      BIX_CHECK(false);
  }
  return recorder.Finish(std::move(result));
}

Bitvector ReplayProgram(const EvalProgram& p) {
  // Trivial program: an input passes through untouched.
  if (p.result_input >= 0) {
    return *p.inputs[static_cast<size_t>(p.result_input)];
  }
  BIX_CHECK(p.result_reg >= 0 && p.num_regs > 0);
  Bitvector out = Bitvector::Zeros(p.num_bits);
  if (p.num_bits == 0) return out;

  const size_t num_words = out.mutable_words().size();
  const uint64_t tail_bits = p.num_bits & 63;
  const uint64_t tail_mask =
      tail_bits != 0 ? (uint64_t{1} << tail_bits) - 1 : ~uint64_t{0};

  // num_regs slots of one segment each, so the whole working set is
  // num_regs * 8 KB (a few slots after finalization).
  std::vector<uint64_t> scratch(static_cast<size_t>(p.num_regs) *
                                kWordsPerSeg);
  uint64_t* out_words = out.mutable_words().data();
  for (size_t w0 = 0; w0 < num_words; w0 += kWordsPerSeg) {
    const size_t len = std::min(kWordsPerSeg, num_words - w0);
    const bool has_tail = tail_bits != 0 && w0 + len == num_words;
    RunSegment(p, scratch.data(), w0, len, has_tail, tail_mask, out_words);
  }
  return out;
}

namespace eval_internal {

void RecordQueryMetrics(const EvalStats& delta, int64_t latency_ns) {
  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& queries = reg.GetCounter("eval.queries");
  static obs::Counter& scans = reg.GetCounter("eval.bitmap_scans");
  static obs::Counter& and_ops = reg.GetCounter("eval.and_ops");
  static obs::Counter& or_ops = reg.GetCounter("eval.or_ops");
  static obs::Counter& xor_ops = reg.GetCounter("eval.xor_ops");
  static obs::Counter& not_ops = reg.GetCounter("eval.not_ops");
  static obs::Counter& buffer_hits = reg.GetCounter("eval.buffer_hits");
  static obs::Counter& bytes_read = reg.GetCounter("eval.bytes_read");
  static obs::Histogram& latency = reg.GetHistogram("eval.latency_ns");
  static obs::Histogram& scans_per_query =
      reg.GetHistogram("eval.scans_per_query");
  queries.Increment();
  scans.Increment(delta.bitmap_scans);
  and_ops.Increment(delta.and_ops);
  or_ops.Increment(delta.or_ops);
  xor_ops.Increment(delta.xor_ops);
  not_ops.Increment(delta.not_ops);
  buffer_hits.Increment(delta.buffer_hits);
  bytes_read.Increment(delta.bytes_read);
  latency.Observe(latency_ns);
  scans_per_query.Observe(delta.bitmap_scans);
}

}  // namespace eval_internal

const char* ToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kPlain:
      return "plain";
    case EngineKind::kAuto:
      return "auto";
  }
  return "?";
}

Bitvector RangeEvalOpt(const BitmapSource& src, CompareOp op, int64_t v,
                       EvalStats* stats) {
  return ReplayProgram(
      RecordEvalProgram(src, EvalAlgorithm::kRangeEvalOpt, op, v, stats));
}

Bitvector RangeEval(const BitmapSource& src, CompareOp op, int64_t v,
                    EvalStats* stats) {
  return ReplayProgram(
      RecordEvalProgram(src, EvalAlgorithm::kRangeEval, op, v, stats));
}

Bitvector EqualityEval(const BitmapSource& src, CompareOp op, int64_t v,
                       EvalStats* stats) {
  return ReplayProgram(
      RecordEvalProgram(src, EvalAlgorithm::kEqualityEval, op, v, stats));
}

Bitvector EvaluatePredicate(const BitmapSource& source,
                            EvalAlgorithm algorithm, CompareOp op, int64_t v,
                            EvalStats* stats) {
  algorithm = ResolveAlgorithm(source.encoding(), algorithm);
  // Stats are always collected (into a local when the caller passed none) so
  // the registry sees every evaluation; `before` isolates this query's delta
  // when the caller accumulates across queries.
  EvalStats local;
  EvalStats* s = stats != nullptr ? stats : &local;
  const EvalStats before = *s;

  obs::TraceSpan span("eval", ToString(algorithm).data());
  span.set_value(v);
  if (span.active()) span.set_detail(std::string(ToString(op)));
  obs::ProfSpan prof("eval", ToString(algorithm));

  const auto start = std::chrono::steady_clock::now();
  EvalProgram program;
  {
    obs::ProfSpan record_span("eval", "record program");
    program = RecordEvalProgram(source, algorithm, op, v, s);
  }
  Bitvector result;
  {
    obs::ProfSpan replay_span("eval", "replay segments");
    result = ReplayProgram(program);
  }
  const int64_t latency_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();

  eval_internal::RecordQueryMetrics(EvalStats::Delta(*s, before), latency_ns);
  return result;
}

}  // namespace bix
