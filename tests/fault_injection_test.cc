// Chaos differential harness for the fault-tolerant storage layer.
//
// Over seeded random (index design, storage scheme, codec, engine, fault
// plan) combinations, every stored-index query must either return a
// foundset bit-identical to the scan oracle or fail with a non-OK Status.
// A silently wrong foundset under *any* injected fault — transient or
// sticky read errors, bit rot, torn writes — is the one outcome the
// storage format exists to rule out, and it fails the suite.
//
// A second lane injects only transient errors within the retry budget and
// requires (nearly) every query to succeed bit-identical: retries must
// actually heal, not just fail politely.
//
// On a violation the harness shrinks the fault plan one spec at a time
// while the violation reproduces and prints the minimal seeded reproducer.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/scan.h"
#include "bitmap/bitvector.h"
#include "core/bitmap_index.h"
#include "core/eval.h"
#include "serve/service.h"
#include "storage/env.h"
#include "storage/stored_index.h"
#include "workload/queries.h"

namespace bix {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "bix_chaos_XXXXXX").string();
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

const char* ToString(FaultSpec::Kind kind) {
  switch (kind) {
    case FaultSpec::Kind::kTransient: return "transient";
    case FaultSpec::Kind::kSticky: return "sticky";
    case FaultSpec::Kind::kBitFlip: return "bitflip";
    case FaultSpec::Kind::kTruncate: return "truncate";
    case FaultSpec::Kind::kRenameFail: return "renamefail";
  }
  return "?";
}

std::string PlanToString(const FaultPlan& plan) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < plan.faults.size(); ++i) {
    const FaultSpec& f = plan.faults[i];
    os << (i ? "; " : "") << ToString(f.kind) << " " << f.path_substring
       << " off=" << f.offset << " bit=" << f.bit << " count=" << f.count;
  }
  os << "]";
  return os.str();
}

struct ChaosCase {
  uint64_t seed = 0;
  std::vector<uint32_t> bases;  // LSB-first
  uint32_t cardinality = 2;
  Encoding encoding = Encoding::kRange;
  size_t rows = 100;
  int null_period = 11;
  StorageScheme scheme = StorageScheme::kBitmapLevel;
  std::string codec = "none";
  EngineKind engine = EngineKind::kPlain;

  std::string ToString() const {
    std::ostringstream os;
    os << "seed=" << seed << " bases=[";
    for (size_t i = 0; i < bases.size(); ++i) os << (i ? "," : "") << bases[i];
    os << "] C=" << cardinality
       << " enc=" << (encoding == Encoding::kRange ? "range" : "equality")
       << " rows=" << rows << " null_period=" << null_period << " scheme="
       << std::string(bix::ToString(scheme)) << " codec=" << codec
       << " engine=" << bix::ToString(engine);
    return os.str();
  }
};

std::vector<uint32_t> GenerateData(const ChaosCase& c) {
  std::mt19937_64 rng(c.seed);
  std::vector<uint32_t> values(c.rows);
  for (size_t i = 0; i < c.rows; ++i) {
    values[i] = static_cast<uint32_t>(rng() % c.cardinality);
  }
  if (c.null_period > 0) {
    for (size_t i = 0; i < c.rows; i += static_cast<size_t>(c.null_period)) {
      values[i] = kNullValue;
    }
  }
  return values;
}

struct Tally {
  int64_t combos = 0;         // query/fault combinations exercised
  int64_t exact = 0;          // OK status and bit-identical to the oracle
  int64_t loud_failures = 0;  // non-OK status (acceptable under faults)
};

struct Violation {
  std::string detail;
};

// Materializes the case's index cleanly, reopens it through a
// FaultInjectingEnv running `plan`, and differentials every selection query
// against the scan oracle.  Returns true on the first silent wrong answer.
bool CaseFails(const ChaosCase& c, const FaultPlan& plan, Violation* violation,
               Tally* tally) {
  std::vector<uint32_t> values = GenerateData(c);
  BitmapIndex index = BitmapIndex::Build(
      values, c.cardinality, BaseSequence::FromLsbFirst(c.bases), c.encoding);
  const Codec* codec = CodecByName(c.codec);
  if (codec == nullptr) {
    violation->detail = "unknown codec " + c.codec;
    return true;
  }
  TempDir dir;
  std::unique_ptr<StoredIndex> clean;
  Status write_status = StoredIndex::Write(index, dir.path() / "idx", c.scheme,
                                           *codec, &clean);
  if (!write_status.ok()) {
    violation->detail =
        "clean Write failed: " + write_status.ToString() + " | " + c.ToString();
    return true;
  }

  FaultPlan plan_copy = plan;
  FaultInjectingEnv env(Env::Default(), std::move(plan_copy));
  StoredIndexOptions options;
  options.env = &env;
  options.retry.max_attempts = 5;
  options.retry.seed = c.seed;
  options.retry.sleep = [](int64_t) {};  // deterministic, no real waiting

  ExecOptions exec;
  exec.engine = c.engine;

  std::unique_ptr<StoredIndex> stored;
  Status open_status = StoredIndex::Open(dir.path() / "idx", &stored, options);
  if (!open_status.ok()) {
    // Refusing to open a damaged index is a loud, correct outcome.
    ++tally->combos;
    ++tally->loud_failures;
    return false;
  }

  for (const Query& q : AllSelectionQueries(c.cardinality)) {
    ++tally->combos;
    Status status;
    Bitvector got = stored->Evaluate(EvalAlgorithm::kAuto, q.op, q.v, nullptr,
                                     nullptr, &status, &exec);
    if (!status.ok()) {
      ++tally->loud_failures;
      continue;
    }
    Bitvector expected = ScanEvaluate(values, q.op, q.v);
    if (got == expected) {
      ++tally->exact;
      continue;
    }
    std::ostringstream os;
    os << "SILENT WRONG ANSWER: op=" << std::string(bix::ToString(q.op))
       << " v=" << q.v << " returned OK with a foundset diverging from the "
       << "scan oracle\n  case: " << c.ToString()
       << "\n  plan: " << PlanToString(plan);
    violation->detail = os.str();
    return true;
  }
  return false;
}

// Drops fault specs one at a time while the violation still reproduces.
FaultPlan ShrinkPlan(const ChaosCase& c, FaultPlan plan, Violation* violation) {
  bool progress = true;
  while (progress && plan.faults.size() > 1) {
    progress = false;
    for (size_t i = 0; i < plan.faults.size(); ++i) {
      FaultPlan candidate;
      for (size_t j = 0; j < plan.faults.size(); ++j) {
        if (j != i) candidate.faults.push_back(plan.faults[j]);
      }
      Tally scratch;
      if (CaseFails(c, candidate, violation, &scratch)) {
        plan = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  Tally scratch;
  CaseFails(c, plan, violation, &scratch);  // refresh detail for minimal plan
  return plan;
}

ChaosCase RandomCase(std::mt19937_64& rng) {
  ChaosCase c;
  c.seed = rng();
  int n = 1 + static_cast<int>(rng() % 2);
  uint64_t capacity = 1;
  for (int i = 0; i < n; ++i) {
    uint32_t b = 2 + static_cast<uint32_t>(rng() % 6);
    c.bases.push_back(b);
    capacity *= b;
  }
  c.cardinality = static_cast<uint32_t>(
      2 + rng() % (std::min<uint64_t>(capacity, 14) - 1));
  c.encoding = rng() % 2 ? Encoding::kRange : Encoding::kEquality;
  c.rows = 64 + rng() % 700;
  c.null_period = rng() % 3 == 0 ? 0 : 5 + static_cast<int>(rng() % 15);
  const StorageScheme schemes[] = {StorageScheme::kBitmapLevel,
                                   StorageScheme::kComponentLevel,
                                   StorageScheme::kIndexLevel};
  c.scheme = schemes[rng() % 3];
  const char* codecs[] = {"none", "rle", "wah"};
  c.codec = codecs[rng() % 3];
  const EngineKind engines[] = {EngineKind::kPlain, EngineKind::kAuto};
  c.engine = engines[rng() % 2];
  return c;
}

// Fault targets biased toward bitmap payload files so most plans let the
// index open and the queries themselves meet the faults.
std::string RandomTarget(std::mt19937_64& rng, const ChaosCase& c) {
  uint64_t roll = rng() % 10;
  if (roll == 0) return "index.meta";
  if (roll == 1) return "nonnull.bm";
  if (roll == 2) return ".bm";  // every bitmap file
  switch (c.scheme) {
    case StorageScheme::kBitmapLevel: {
      uint32_t comp = static_cast<uint32_t>(rng() % c.bases.size());
      uint32_t slot = static_cast<uint32_t>(rng() % c.bases[comp]);
      return "c" + std::to_string(comp) + "_b" + std::to_string(slot) + ".bm";
    }
    case StorageScheme::kComponentLevel:
      return "c" + std::to_string(rng() % c.bases.size()) + ".bm";
    case StorageScheme::kIndexLevel:
      return "index.bm";
  }
  return ".bm";
}

FaultPlan RandomPlan(std::mt19937_64& rng, const ChaosCase& c,
                     bool transient_only) {
  FaultPlan plan;
  int n = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < n; ++i) {
    FaultSpec spec;
    if (transient_only) {
      spec.kind = FaultSpec::Kind::kTransient;
    } else {
      const FaultSpec::Kind kinds[] = {
          FaultSpec::Kind::kTransient, FaultSpec::Kind::kSticky,
          FaultSpec::Kind::kBitFlip, FaultSpec::Kind::kTruncate};
      spec.kind = kinds[rng() % 4];
    }
    spec.path_substring = RandomTarget(rng, c);
    spec.offset = rng() % 8192;
    spec.bit = static_cast<int>(rng() % 8);
    // Stay within the retry budget (max_attempts=5 covers 3 consecutive
    // transient failures of one read with room to spare).
    spec.count = 1 + static_cast<int>(rng() % 3);
    plan.faults.push_back(std::move(spec));
  }
  return plan;
}

// Any fault, any design: never a silent wrong answer.
TEST(FaultInjectionTest, NoFaultProducesASilentWrongAnswer) {
  std::mt19937_64 rng(20260805);
  Tally tally;
  for (int trial = 0; trial < 100; ++trial) {
    ChaosCase c = RandomCase(rng);
    FaultPlan plan = RandomPlan(rng, c, /*transient_only=*/false);
    Violation violation;
    if (CaseFails(c, plan, &violation, &tally)) {
      FaultPlan minimal = ShrinkPlan(c, plan, &violation);
      FAIL() << "chaos differential violation\n  " << violation.detail
             << "\n  minimal plan: " << PlanToString(minimal);
    }
  }
  // The acceptance bar: a real sweep, not a handful of lucky cases.
  EXPECT_GE(tally.combos, 1000) << "chaos sweep exercised too few "
                                   "query/fault combinations";
  EXPECT_GT(tally.exact, 0);
  EXPECT_GT(tally.loud_failures, 0)
      << "no injected fault ever surfaced — the plans are not biting";
}

// Transient-only faults within the retry budget: retries must heal, so
// queries succeed bit-identical (>= 99% required; expected 100%).
TEST(FaultInjectionTest, TransientFaultsHealToBitIdenticalResults) {
  std::mt19937_64 rng(987654321);
  Tally tally;
  for (int trial = 0; trial < 30; ++trial) {
    ChaosCase c = RandomCase(rng);
    FaultPlan plan = RandomPlan(rng, c, /*transient_only=*/true);
    Violation violation;
    if (CaseFails(c, plan, &violation, &tally)) {
      FaultPlan minimal = ShrinkPlan(c, plan, &violation);
      FAIL() << "chaos differential violation (transient lane)\n  "
             << violation.detail
             << "\n  minimal plan: " << PlanToString(minimal);
    }
  }
  ASSERT_GE(tally.combos, 500);
  EXPECT_GE(static_cast<double>(tally.exact),
            0.99 * static_cast<double>(tally.combos))
      << "exact=" << tally.exact << " loud=" << tally.loud_failures
      << " combos=" << tally.combos
      << " — transient errors within the retry budget must heal";
}

// Sticky rot on one equality slice: the BS reconstruction path should keep
// the whole query space answering bit-identically (degraded, not down).
TEST(FaultInjectionTest, EqualitySliceRotIsHealedByReconstruction) {
  ChaosCase c;
  c.seed = 31337;
  c.bases = {9};
  c.cardinality = 9;
  c.encoding = Encoding::kEquality;
  c.rows = 500;
  c.null_period = 7;
  c.scheme = StorageScheme::kBitmapLevel;
  c.codec = "none";
  c.engine = EngineKind::kPlain;
  FaultPlan plan;
  plan.faults.push_back({FaultSpec::Kind::kBitFlip, "c0_b3.bm", 57, 2, 1});
  Violation violation;
  Tally tally;
  ASSERT_FALSE(CaseFails(c, plan, &violation, &tally)) << violation.detail;
  EXPECT_EQ(tally.loud_failures, 0)
      << "reconstruction should heal a single rotted equality slice";
  EXPECT_EQ(tally.exact, tally.combos);
}

// ---------------------------------------------------------------------------
// Faults firing inside served reads (serve layer, src/serve/)
//
// The service fetches cold operands through the shared single-flight
// cache, reading through the same FaultInjectingEnv seam, so fault plans
// fire inside served queries unchanged.  These tests hold the chaos
// contract across that layer: transient errors heal through the existing
// retry policy, sticky errors surface a typed Status to every query joined
// on the operand, and nothing is ever silently wrong.

// One small BS index opened over a fault-injecting env, served through the
// shared operand cache.
struct ServeChaosFixture {
  TempDir dir;
  std::vector<uint32_t> values;
  std::unique_ptr<StoredIndex> stored;
  std::unique_ptr<FaultInjectingEnv> env;

  void Build(FaultPlan plan, Encoding encoding = Encoding::kRange) {
    std::mt19937_64 rng(4242);
    values.resize(400);
    for (uint32_t& v : values) v = static_cast<uint32_t>(rng() % 8);
    BitmapIndex index = BitmapIndex::Build(
        values, 8, BaseSequence::FromLsbFirst({8}), encoding);
    std::unique_ptr<StoredIndex> clean;
    ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                   StorageScheme::kBitmapLevel,
                                   *CodecByName("none"), &clean)
                    .ok());
    env = std::make_unique<FaultInjectingEnv>(Env::Default(), std::move(plan));
    StoredIndexOptions options;
    options.env = env.get();
    options.retry.max_attempts = 5;
    options.retry.seed = 4242;
    options.retry.sleep = [](int64_t) {};  // deterministic, no real waiting
    ASSERT_TRUE(StoredIndex::Open(dir.path() / "idx", &stored, options).ok());
  }
};

TEST(FaultInjectionServeTest, TransientFaultsInsideServedReadsHeal) {
  ServeChaosFixture fx;
  FaultPlan plan;
  // Reads of any bitmap file fail four times total before healing — inside
  // the per-read retry budget of 5 attempts.
  plan.faults.push_back({FaultSpec::Kind::kTransient, ".bm", 0, 0, 4});
  fx.Build(std::move(plan));
  if (HasFatalFailure()) return;

  serve::ServeOptions options;
  options.num_threads = 4;
  options.max_pending = 256;
  serve::QueryService service(options);
  service.AddColumn(fx.stored.get());

  std::vector<serve::ServeQuery> queries;
  for (const Query& q : AllSelectionQueries(8)) {
    serve::ServeQuery sq;
    sq.id = queries.size();
    sq.op = q.op;
    sq.value = q.v;
    queries.push_back(sq);
  }
  std::vector<serve::ServeResult> results = service.RunBatch(queries);

  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_TRUE(results[i].status.ok())
        << "transient faults within the retry budget must heal: "
        << results[i].status.ToString();
    Bitvector expected =
        ScanEvaluate(fx.values, queries[i].op, queries[i].value);
    EXPECT_EQ(results[i].foundset, expected);
  }
  EXPECT_GT(fx.env->injected_errors(), 0)
      << "the plan never fired — the test proved nothing";
}

TEST(FaultInjectionServeTest, StickyFailureSurfacesTypedToAllWaiters) {
  ServeChaosFixture fx;
  FaultPlan plan;
  // Every read of slot 3's bitmap fails forever; range encoding has no
  // sibling reconstruction, so queries needing that operand must fail
  // loudly while the rest of the query space keeps answering exactly.
  plan.faults.push_back({FaultSpec::Kind::kSticky, "c0_b3.bm", 0, 0, 1});
  fx.Build(std::move(plan));
  if (HasFatalFailure()) return;

  serve::ServeOptions options;
  options.num_threads = 8;
  options.max_pending = 256;
  serve::QueryService service(options);
  service.AddColumn(fx.stored.get());

  // Many concurrent queries for the same poisoned operand (they join one
  // flight or retry it after a failure-eviction), plus queries that never
  // touch it.
  std::vector<serve::ServeQuery> queries;
  for (int i = 0; i < 8; ++i) {
    serve::ServeQuery sq;
    sq.id = queries.size();
    sq.op = CompareOp::kEq;
    sq.value = 3;  // range-encoded eq touches slots 3 and 2
    queries.push_back(sq);
  }
  for (int i = 0; i < 4; ++i) {
    serve::ServeQuery sq;
    sq.id = queries.size();
    sq.op = CompareOp::kLe;
    sq.value = 1;  // touches only slot 1
    queries.push_back(sq);
  }

  for (int round = 0; round < 2; ++round) {  // sticky stays sticky
    SCOPED_TRACE("round " + std::to_string(round));
    service.cache().Clear();
    std::vector<serve::ServeResult> results = service.RunBatch(queries);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      if (queries[i].op == CompareOp::kEq) {
        EXPECT_EQ(results[i].status.code(), Status::Code::kIoError)
            << "every query joined on the poisoned operand gets the typed "
               "error";
        EXPECT_EQ(results[i].row_count, 0u);
      } else {
        ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
        Bitvector expected =
            ScanEvaluate(fx.values, queries[i].op, queries[i].value);
        EXPECT_EQ(results[i].foundset, expected);
      }
    }
  }
}

serve::ServeQuery ServeEq(uint64_t id, uint32_t value) {
  serve::ServeQuery sq;
  sq.id = id;
  sq.op = CompareOp::kEq;
  sq.value = value;
  return sq;
}

// A fetch that exhausts its retry budget fails the query, and the failure
// is not cached: the next batch fetches the operand afresh and, once the
// fault has healed, answers exactly.
TEST(FaultInjectionServeTest, FailedFlightIsRetriedByTheNextBatch) {
  ServeChaosFixture fx;
  FaultPlan plan;
  // Seven failures: more than one read's budget of 5 attempts, fewer than
  // two reads' worth.
  plan.faults.push_back({FaultSpec::Kind::kTransient, "c0_b3.bm", 0, 0, 7});
  fx.Build(std::move(plan));
  if (HasFatalFailure()) return;

  serve::ServeOptions options;
  options.num_threads = 1;
  options.max_pending = 16;
  serve::QueryService service(options);
  service.AddColumn(fx.stored.get());
  const std::vector<serve::ServeQuery> batch = {ServeEq(0, 3)};

  std::vector<serve::ServeResult> first = service.RunBatch(batch);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].status.code(), Status::Code::kIoError)
      << first[0].status.ToString();
  EXPECT_EQ(first[0].row_count, 0u);

  std::vector<serve::ServeResult> second = service.RunBatch(batch);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_TRUE(second[0].status.ok()) << second[0].status.ToString();
  EXPECT_EQ(second[0].foundset, ScanEvaluate(fx.values, CompareOp::kEq, 3));
  EXPECT_EQ(fx.env->injected_errors(), 7);
}

// Bit rot in a range-encoded bitmap (no sibling redundancy) fails every
// served query that needs it with a typed Corruption, batch after batch;
// every other query still answers exactly.
TEST(FaultInjectionServeTest, BitRotInsideServedReadFailsTypedNeverWrong) {
  ServeChaosFixture fx;
  FaultPlan plan;
  plan.faults.push_back({FaultSpec::Kind::kBitFlip, "c0_b3.bm", 40, 5, 1});
  fx.Build(std::move(plan));
  if (HasFatalFailure()) return;

  serve::ServeOptions options;
  options.num_threads = 4;
  options.max_pending = 256;
  serve::QueryService service(options);
  service.AddColumn(fx.stored.get());

  std::vector<serve::ServeQuery> queries;
  for (const Query& q : AllSelectionQueries(8)) {
    serve::ServeQuery sq;
    sq.id = queries.size();
    sq.op = q.op;
    sq.value = q.v;
    queries.push_back(sq);
  }
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<serve::ServeResult> results = service.RunBatch(queries);
    ASSERT_EQ(results.size(), queries.size());
    int failed = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      if (!results[i].status.ok()) {
        EXPECT_EQ(results[i].status.code(), Status::Code::kCorruption)
            << results[i].status.ToString();
        EXPECT_EQ(results[i].row_count, 0u);
        ++failed;
        continue;
      }
      EXPECT_EQ(results[i].foundset,
                ScanEvaluate(fx.values, queries[i].op, queries[i].value));
    }
    EXPECT_GT(failed, 0) << "no query touched the rotted bitmap";
    EXPECT_LT(failed, static_cast<int>(results.size()));
  }
  EXPECT_GT(fx.env->injected_corruptions(), 0);
}

// Rot in one equality slice is healed by sibling reconstruction inside the
// served fetch; the reconstructed operand is cached, and every query that
// consumes it — the fetcher and later hits alike — is flagged degraded.
TEST(FaultInjectionServeTest, ReconstructedOperandIsDegradedOnEveryHit) {
  ServeChaosFixture fx;
  FaultPlan plan;
  plan.faults.push_back({FaultSpec::Kind::kBitFlip, "c0_b3.bm", 40, 2, 1});
  fx.Build(std::move(plan), Encoding::kEquality);
  if (HasFatalFailure()) return;

  serve::ServeOptions options;
  options.num_threads = 1;
  options.max_pending = 16;
  serve::QueryService service(options);
  service.AddColumn(fx.stored.get());
  const Bitvector expected = ScanEvaluate(fx.values, CompareOp::kEq, 3);

  std::vector<serve::ServeResult> fetched = service.RunBatch({ServeEq(0, 3)});
  ASSERT_EQ(fetched.size(), 1u);
  ASSERT_TRUE(fetched[0].status.ok()) << fetched[0].status.ToString();
  EXPECT_TRUE(fetched[0].degraded);
  EXPECT_EQ(fetched[0].foundset, expected);

  std::vector<serve::ServeResult> hit = service.RunBatch({ServeEq(1, 3)});
  ASSERT_EQ(hit.size(), 1u);
  ASSERT_TRUE(hit[0].status.ok()) << hit[0].status.ToString();
  EXPECT_GT(hit[0].shared_hits, 0);
  EXPECT_TRUE(hit[0].degraded) << "a cached reconstruction stays degraded";
  EXPECT_EQ(hit[0].foundset, expected);

  // A query that never touches slice 3 is not degraded.
  std::vector<serve::ServeResult> other = service.RunBatch({ServeEq(2, 5)});
  ASSERT_TRUE(other[0].status.ok()) << other[0].status.ToString();
  EXPECT_FALSE(other[0].degraded);
  EXPECT_EQ(other[0].foundset, ScanEvaluate(fx.values, CompareOp::kEq, 5));
}

}  // namespace
}  // namespace bix
