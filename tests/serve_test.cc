// Tests for the concurrent query service (src/serve/): single-flight
// semantics of the shared-operand cache, admission control and deadlines,
// the multi-tenant trace generator, and the differential guarantee that
// serving N queries concurrently with cross-query operand sharing produces
// foundsets and scan/op counts bit-identical to a sequential unshared
// replay.  The cache and differential tests are the ones scripts/check.sh
// re-runs under ThreadSanitizer.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/scan.h"
#include "compress/codec.h"
#include "core/advisor.h"
#include "core/bitmap_index.h"
#include "core/eval.h"
#include "core/eval_stats.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/operand_cache.h"
#include "serve/service.h"
#include "storage/stored_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace bix {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "bix_serve_test_XXXXXX")
                           .string();
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

// ---------------------------------------------------------------------------
// OperandCache

serve::OperandKey Key(uint32_t column, int component, uint32_t slot) {
  serve::OperandKey key;
  key.column = column;
  key.component = component;
  key.slot = slot;
  return key;
}

TEST(OperandCacheTest, SingleFlightUnderContention) {
  serve::OperandCache cache;
  const serve::OperandKey key = Key(0, 1, 2);
  std::atomic<int> fetches{0};
  std::atomic<int> hits{0};
  std::vector<std::shared_ptr<const serve::CachedOperand>> results(16);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      bool was_hit = false;
      results[t] = cache.GetOrFetch(
          key,
          [&](serve::CachedOperand* out) {
            fetches.fetch_add(1);
            // Hold the flight open long enough that other threads join it.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            out->dense = Bitvector::Ones(64);
          },
          &was_hit);
      if (was_hit) hits.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(fetches.load(), 1) << "single-flight must fetch exactly once";
  EXPECT_EQ(hits.load(), 15);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->status.ok());
    // Everyone consumes the same materialized operand, not a copy.
    EXPECT_EQ(r.get(), results[0].get());
  }
  EXPECT_EQ(cache.size(), 1u);
}

TEST(OperandCacheTest, FailedFetchIsPublishedThenRetried) {
  serve::OperandCache cache;
  const serve::OperandKey key = Key(3, 0, 0);
  int fetches = 0;
  bool hit = false;

  auto failed = cache.GetOrFetch(
      key,
      [&](serve::CachedOperand* out) {
        ++fetches;
        out->status = Status::IoError("transient");
      },
      &hit);
  EXPECT_FALSE(failed->status.ok());
  EXPECT_EQ(cache.size(), 0u) << "failures must not be cached";

  auto ok = cache.GetOrFetch(
      key,
      [&](serve::CachedOperand* out) {
        ++fetches;
        out->dense = Bitvector::Ones(8);
      },
      &hit);
  EXPECT_TRUE(ok->status.ok());
  EXPECT_FALSE(hit) << "retry is a fresh fetch, not a hit";
  EXPECT_EQ(fetches, 2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(OperandCacheTest, EvictionKeepsHandedOutOperandsAlive) {
  serve::OperandCache::Options options;
  options.max_entries = 2;
  serve::OperandCache cache(options);
  bool hit = false;

  auto fetch_bits = [](uint32_t slot) {
    return [slot](serve::CachedOperand* out) {
      out->dense = Bitvector::Ones(8 * (slot + 1));
    };
  };
  auto first = cache.GetOrFetch(Key(0, 0, 0), fetch_bits(0), &hit);
  cache.GetOrFetch(Key(0, 0, 1), fetch_bits(1), &hit);
  cache.GetOrFetch(Key(0, 0, 2), fetch_bits(2), &hit);  // evicts slot 0
  EXPECT_EQ(cache.size(), 2u);

  // The evicted entry stays valid for its holder.
  EXPECT_EQ(first->dense.size(), 8u);
  // A re-fetch of the evicted key is a miss again.
  cache.GetOrFetch(Key(0, 0, 0), fetch_bits(0), &hit);
  EXPECT_FALSE(hit);
}

int64_t SharedFetchCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

// Spins until `n` more lookups have joined an existing entry since `base`
// (a joiner counts its hit before it blocks on the flight), so a test can
// release a fetch knowing exactly who joined it.
void WaitForSharedHits(int64_t base, int64_t n) {
  while (SharedFetchCounter("serve.shared_fetch_hits") < base + n) {
    std::this_thread::yield();
  }
}

// A fetch that announces it has started, then holds its flight open until
// the test releases it.
struct HeldFetch {
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();

  serve::OperandCache::FetchFn Fn(std::atomic<int>* fetches,
                                  serve::CachedOperand result) {
    return [this, fetches, result](serve::CachedOperand* out) {
      fetches->fetch_add(1);
      started.set_value();
      released.wait();
      *out = result;
    };
  }
};

serve::CachedOperand DenseOnes(size_t n) {
  serve::CachedOperand op;
  op.dense = Bitvector::Ones(n);
  return op;
}

// Lookups that arrive while the fetch is in flight block on it and wake
// with the fetcher's operand; none returns before the publish.
TEST(OperandCacheTest, JoinersBlockUntilTheFetchPublishes) {
  serve::OperandCache cache;
  const serve::OperandKey key = Key(0, 0, 3);
  std::atomic<int> fetches{0};
  HeldFetch held;

  std::shared_ptr<const serve::CachedOperand> owner_result;
  std::thread owner([&] {
    bool hit = true;
    owner_result =
        cache.GetOrFetch(key, held.Fn(&fetches, DenseOnes(32)), &hit);
    EXPECT_FALSE(hit);
  });
  held.started.get_future().wait();

  const int64_t hits_before = SharedFetchCounter("serve.shared_fetch_hits");
  std::atomic<int> woke{0};
  std::vector<std::shared_ptr<const serve::CachedOperand>> results(4);
  std::vector<std::thread> waiters;
  for (size_t i = 0; i < results.size(); ++i) {
    waiters.emplace_back([&, i] {
      bool hit = false;
      results[i] = cache.GetOrFetch(
          key,
          [&](serve::CachedOperand* out) {
            fetches.fetch_add(1);
            out->dense = Bitvector::Zeros(32);
          },
          &hit);
      EXPECT_TRUE(hit);
      woke.fetch_add(1);
    });
  }
  WaitForSharedHits(hits_before, 4);
  EXPECT_EQ(woke.load(), 0) << "a joiner returned before any publish";
  EXPECT_EQ(cache.size(), 0u) << "a pending entry is not ready";

  held.release.set_value();
  owner.join();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(woke.load(), 4);
  EXPECT_EQ(fetches.load(), 1);
  ASSERT_NE(owner_result, nullptr);
  EXPECT_EQ(owner_result->dense.Count(), 32u);
  for (const auto& r : results) EXPECT_EQ(r.get(), owner_result.get());
}

// Flights are per key: a slow fetch of one operand never holds up the
// fetch of another, and each publish lands on its own key.
TEST(OperandCacheTest, FlightsOnDifferentKeysCompleteIndependently) {
  serve::OperandCache cache;
  const serve::OperandKey key_a = Key(0, 0, 1);
  const serve::OperandKey key_b = Key(0, 0, 2);
  std::atomic<int> fetches{0};
  HeldFetch held;

  std::shared_ptr<const serve::CachedOperand> got_a;
  std::thread slow([&] {
    got_a = cache.GetOrFetch(key_a, held.Fn(&fetches, DenseOnes(8)), nullptr);
  });
  held.started.get_future().wait();

  // B is fetched and ready while A is still in flight.
  bool hit = true;
  auto got_b = cache.GetOrFetch(
      key_b,
      [&](serve::CachedOperand* out) {
        fetches.fetch_add(1);
        out->dense = Bitvector::Zeros(8);
      },
      &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(got_b->dense.Count(), 0u);
  EXPECT_EQ(cache.size(), 1u) << "only B is ready";

  held.release.set_value();
  slow.join();
  EXPECT_EQ(got_a->dense.Count(), 8u);
  EXPECT_EQ(cache.size(), 2u);
  auto fail_fetch = [](serve::CachedOperand* out) {
    out->status = Status::InvalidArgument("ready entries must not refetch");
  };
  EXPECT_EQ(cache.GetOrFetch(key_a, fail_fetch, &hit)->dense.Count(), 8u);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.GetOrFetch(key_b, fail_fetch, &hit)->dense.Count(), 0u);
  EXPECT_TRUE(hit);
  EXPECT_EQ(fetches.load(), 2);
}

// A failed fetch delivers its typed status to every lookup that joined the
// flight, then evicts the entry so the next lookup fetches afresh.
TEST(OperandCacheTest, FailedFetchReachesJoinedWaitersThenEvicts) {
  serve::OperandCache cache;
  const serve::OperandKey key = Key(1, 0, 0);
  std::atomic<int> fetches{0};
  HeldFetch held;
  serve::CachedOperand failure;
  failure.status = Status::IoError("disk ate the bitmap");

  std::thread owner([&] {
    auto operand = cache.GetOrFetch(key, held.Fn(&fetches, failure), nullptr);
    EXPECT_EQ(operand->status.code(), Status::Code::kIoError);
  });
  held.started.get_future().wait();

  const int64_t hits_before = SharedFetchCounter("serve.shared_fetch_hits");
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      bool hit = false;
      auto operand = cache.GetOrFetch(
          key, [&](serve::CachedOperand*) { fetches.fetch_add(1); }, &hit);
      EXPECT_TRUE(hit);
      EXPECT_EQ(operand->status.code(), Status::Code::kIoError);
      EXPECT_NE(operand->status.ToString().find("disk ate the bitmap"),
                std::string::npos);
    });
  }
  WaitForSharedHits(hits_before, 3);
  held.release.set_value();
  owner.join();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(fetches.load(), 1) << "joiners must not fetch";
  EXPECT_EQ(cache.size(), 0u);

  bool hit = true;
  auto retried = cache.GetOrFetch(
      key,
      [&](serve::CachedOperand* out) {
        fetches.fetch_add(1);
        out->dense = Bitvector::Ones(4);
      },
      &hit);
  EXPECT_FALSE(hit) << "the failed entry must be evicted for retry";
  EXPECT_TRUE(retried->status.ok());
  EXPECT_EQ(retried->dense.Count(), 4u);
  EXPECT_EQ(fetches.load(), 2);
}

// serve.shared_fetch_misses counts the lookups that fetched (failed ones
// included); serve.shared_fetch_hits counts the ones served without
// fetching.
TEST(OperandCacheTest, HitsAndMissesAreCounted) {
  serve::OperandCache cache;
  const int64_t hits = SharedFetchCounter("serve.shared_fetch_hits");
  const int64_t misses = SharedFetchCounter("serve.shared_fetch_misses");
  auto ok_fetch = [](serve::CachedOperand* out) {
    out->dense = Bitvector::Ones(8);
  };
  auto failing_fetch = [](serve::CachedOperand* out) {
    out->status = Status::IoError("transient");
  };

  cache.GetOrFetch(Key(0, 0, 0), ok_fetch, nullptr);       // miss
  cache.GetOrFetch(Key(0, 0, 0), ok_fetch, nullptr);       // hit
  cache.GetOrFetch(Key(0, 0, 1), failing_fetch, nullptr);  // miss, fails
  cache.GetOrFetch(Key(0, 0, 1), ok_fetch, nullptr);       // miss, retry
  cache.GetOrFetch(Key(0, 0, 1), ok_fetch, nullptr);       // hit

  EXPECT_EQ(SharedFetchCounter("serve.shared_fetch_hits") - hits, 2);
  EXPECT_EQ(SharedFetchCounter("serve.shared_fetch_misses") - misses, 3);
}

// Eviction is least-recently-used: a hit refreshes an entry's recency.
TEST(OperandCacheTest, HitRefreshesLruRecency) {
  serve::OperandCache::Options options;
  options.max_entries = 2;
  serve::OperandCache cache(options);
  auto fetch = [](serve::CachedOperand* out) {
    out->dense = Bitvector::Ones(8);
  };
  bool hit = false;

  cache.GetOrFetch(Key(0, 0, 0), fetch, &hit);  // A
  cache.GetOrFetch(Key(0, 0, 1), fetch, &hit);  // B
  cache.GetOrFetch(Key(0, 0, 0), fetch, &hit);  // A again: most recent
  EXPECT_TRUE(hit);
  cache.GetOrFetch(Key(0, 0, 2), fetch, &hit);  // C evicts B, not A
  EXPECT_EQ(cache.size(), 2u);

  cache.GetOrFetch(Key(0, 0, 0), fetch, &hit);
  EXPECT_TRUE(hit) << "the refreshed entry must survive";
  cache.GetOrFetch(Key(0, 0, 1), fetch, &hit);
  EXPECT_FALSE(hit) << "the least recently used entry must be evicted";
}

// Clear drops ready entries only: a fetch in flight across the Clear still
// serves the lookups that join it and lands in the cache when it publishes.
TEST(OperandCacheTest, ClearKeepsAFlightInProgress) {
  serve::OperandCache cache;
  const serve::OperandKey pending = Key(0, 0, 7);
  const serve::OperandKey ready = Key(0, 0, 8);
  std::atomic<int> fetches{0};
  HeldFetch held;

  std::shared_ptr<const serve::CachedOperand> owner_result;
  std::thread owner([&] {
    owner_result =
        cache.GetOrFetch(pending, held.Fn(&fetches, DenseOnes(16)), nullptr);
  });
  held.started.get_future().wait();
  auto count_fetch = [&](serve::CachedOperand* out) {
    fetches.fetch_add(1);
    out->dense = Bitvector::Ones(4);
  };
  cache.GetOrFetch(ready, count_fetch, nullptr);
  EXPECT_EQ(cache.size(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);

  const int64_t hits_before = SharedFetchCounter("serve.shared_fetch_hits");
  std::shared_ptr<const serve::CachedOperand> joined;
  std::thread joiner([&] {
    bool hit = false;
    joined = cache.GetOrFetch(pending, count_fetch, &hit);
    EXPECT_TRUE(hit) << "Clear must not orphan a flight in progress";
  });
  WaitForSharedHits(hits_before, 1);
  held.release.set_value();
  owner.join();
  joiner.join();
  EXPECT_EQ(joined.get(), owner_result.get());
  EXPECT_EQ(joined->dense.Count(), 16u);
  EXPECT_EQ(cache.size(), 1u) << "the flight publishes into the cache";

  bool hit = true;
  cache.GetOrFetch(ready, count_fetch, &hit);
  EXPECT_FALSE(hit) << "a cleared ready entry is fetched again";
  EXPECT_EQ(fetches.load(), 3);
}

// Pending entries are pinned on top of the capacity: eviction churn while
// a fetch is in flight never drops the flight its waiters depend on.
TEST(OperandCacheTest, PendingFetchIsPinnedAboveTheCap) {
  serve::OperandCache::Options options;
  options.max_entries = 1;
  serve::OperandCache cache(options);
  const serve::OperandKey pending = Key(2, 0, 0);
  std::atomic<int> fetches{0};
  HeldFetch held;

  std::thread owner([&] {
    cache.GetOrFetch(pending, held.Fn(&fetches, DenseOnes(24)), nullptr);
  });
  held.started.get_future().wait();
  auto small_fetch = [&](serve::CachedOperand* out) {
    fetches.fetch_add(1);
    out->dense = Bitvector::Ones(2);
  };
  for (uint32_t slot = 1; slot <= 3; ++slot) {
    cache.GetOrFetch(Key(2, 0, slot), small_fetch, nullptr);
    EXPECT_EQ(cache.size(), 1u);
  }

  const int64_t hits_before = SharedFetchCounter("serve.shared_fetch_hits");
  std::shared_ptr<const serve::CachedOperand> joined;
  std::thread joiner([&] {
    bool hit = false;
    joined = cache.GetOrFetch(pending, small_fetch, &hit);
    EXPECT_TRUE(hit);
  });
  WaitForSharedHits(hits_before, 1);
  held.release.set_value();
  owner.join();
  joiner.join();
  EXPECT_EQ(joined->dense.Count(), 24u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(fetches.load(), 4);

  bool hit = false;
  auto again = cache.GetOrFetch(pending, small_fetch, &hit);
  EXPECT_TRUE(hit) << "the last published entry is the most recent one";
  EXPECT_EQ(again->dense.Count(), 24u);
}

// Every field of the key names a different payload: column, component,
// slot, serve epoch and representation kind each make a distinct entry.
TEST(OperandCacheTest, EveryKeyFieldSeparatesEntries) {
  serve::OperandCache cache;
  std::vector<serve::OperandKey> keys(6, Key(1, 1, 1));
  keys[1].column = 2;
  keys[2].component = 2;
  keys[3].slot = 2;
  keys[4].epoch = 1;
  keys[5].kind = serve::OperandKey::Kind::kWah;

  for (size_t i = 0; i < keys.size(); ++i) {
    bool hit = true;
    auto operand = cache.GetOrFetch(
        keys[i],
        [i](serve::CachedOperand* out) { out->dense = Bitvector::Ones(i + 1); },
        &hit);
    EXPECT_FALSE(hit) << "key " << i << " collided with an earlier key";
    EXPECT_EQ(operand->dense.Count(), i + 1);
  }
  EXPECT_EQ(cache.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    bool hit = false;
    auto operand = cache.GetOrFetch(
        keys[i], [](serve::CachedOperand* out) { out->dense = {}; }, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(operand->dense.Count(), i + 1) << "key " << i;
  }
}

// A sibling-reconstructed operand stays flagged degraded for every later
// query that consumes it from the cache.
TEST(OperandCacheTest, DegradedFlagReachesEveryHit) {
  serve::OperandCache cache;
  const serve::OperandKey key = Key(0, 0, 4);
  auto first = cache.GetOrFetch(
      key,
      [](serve::CachedOperand* out) {
        out->dense = Bitvector::Ones(8);
        out->degraded = true;
      },
      nullptr);
  EXPECT_TRUE(first->degraded);
  bool hit = false;
  auto again = cache.GetOrFetch(
      key, [](serve::CachedOperand* out) { out->dense = {}; }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(again->degraded);
  EXPECT_EQ(again.get(), first.get());
}

// ---------------------------------------------------------------------------
// Admission control and deadlines

TEST(AdmissionTest, BoundedQueueShedsBeyondCapacity) {
  serve::AdmissionController::Options options;
  options.max_pending = 4;
  serve::AdmissionController admission(options);

  int admitted = 0, shed = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    serve::ServeQuery q;
    q.id = i;
    Status s = admission.Admit(q);
    if (s.ok()) {
      ++admitted;
    } else {
      EXPECT_EQ(s.code(), Status::Code::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(shed, 6);
  EXPECT_EQ(admission.pending(), 4u);

  // Draining frees capacity again.
  EXPECT_EQ(admission.TakeAll().size(), 4u);
  EXPECT_EQ(admission.pending(), 0u);
  EXPECT_TRUE(admission.Admit(serve::ServeQuery{}).ok());
}

TEST(AdmissionTest, DeadlineStamping) {
  serve::AdmissionController::Options options;
  options.max_pending = 4;
  options.default_deadline_ns = 5'000'000;
  serve::AdmissionController admission(options);

  serve::ServeQuery with_own;
  with_own.deadline_ns = 1'000'000'000;
  ASSERT_TRUE(admission.Admit(with_own).ok());
  serve::ServeQuery with_default;
  ASSERT_TRUE(admission.Admit(with_default).ok());

  std::vector<serve::AdmittedQuery> taken = admission.TakeAll();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].deadline_ns - taken[0].admit_ns, 1'000'000'000);
  EXPECT_EQ(taken[1].deadline_ns - taken[1].admit_ns, 5'000'000);
}

// ---------------------------------------------------------------------------
// Trace generator

TEST(TraceTest, DeterministicAndRoundTrips) {
  TraceSpec spec;
  spec.num_columns = 5;
  spec.cardinality = 50;
  spec.num_queries = 300;
  spec.seed = 7;
  std::vector<TraceQuery> a = GenerateMultiTenantTrace(spec);
  std::vector<TraceQuery> b = GenerateMultiTenantTrace(spec);
  ASSERT_EQ(a.size(), 300u);
  EXPECT_EQ(a, b) << "same spec must generate the same trace";

  spec.seed = 8;
  EXPECT_NE(a, GenerateMultiTenantTrace(spec));

  std::vector<TraceQuery> parsed;
  Status s = ParseTrace(SerializeTrace(a), &parsed);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(parsed, a);
}

TEST(TraceTest, SkewConcentratesOnHotColumnsAndValues) {
  TraceSpec spec;
  spec.num_columns = 8;
  spec.cardinality = 100;
  spec.num_queries = 4000;
  spec.column_skew = 1.5;
  spec.value_skew = 1.5;
  std::vector<TraceQuery> trace = GenerateMultiTenantTrace(spec);

  size_t col0 = 0, val0 = 0;
  for (const TraceQuery& q : trace) {
    ASSERT_LT(q.column, spec.num_columns);
    ASSERT_GE(q.v, 0);
    ASSERT_LT(q.v, spec.cardinality);
    if (q.column == 0) ++col0;
    if (q.v == 0) ++val0;
  }
  // Under zipf(1.5) rank 0 carries ~37% of the mass over 8 columns; a
  // uniform draw would give 12.5%.  Loose bounds keep this seed-robust.
  EXPECT_GT(col0, trace.size() / 4);
  EXPECT_GT(val0, trace.size() / 10);
}

TEST(TraceTest, EqFractionExtremes) {
  TraceSpec spec;
  spec.num_queries = 200;
  spec.eq_fraction = 1.0;
  for (const TraceQuery& q : GenerateMultiTenantTrace(spec)) {
    EXPECT_EQ(q.op, CompareOp::kEq);
  }
  spec.eq_fraction = 0.0;
  for (const TraceQuery& q : GenerateMultiTenantTrace(spec)) {
    EXPECT_EQ(q.op, CompareOp::kLe);
  }
}

TEST(TraceTest, ParseRejectsMalformedLines) {
  std::vector<TraceQuery> out;
  EXPECT_FALSE(ParseTrace("x 0 = 1\n", &out).ok());
  EXPECT_FALSE(ParseTrace("q 0 = \n", &out).ok());
  EXPECT_FALSE(ParseTrace("q 0 >< 1\n", &out).ok());
  EXPECT_FALSE(ParseTrace("q zero = 1\n", &out).ok());
  EXPECT_FALSE(ParseTrace("q 0 = 1 extra\n", &out).ok());
  EXPECT_TRUE(ParseTrace("# comment\n\nq 0 = 1\n", &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (TraceQuery{0, CompareOp::kEq, 1}));
}

// Edge cases a hand-edited or truncated trace file can contain: every one
// must be a typed per-line error or an exact parse, never a crash or a
// silently short trace.
TEST(TraceTest, ParseEdgeCases) {
  std::vector<TraceQuery> out;

  // A record truncated mid-line (e.g. a partial download) errors with the
  // line number instead of dropping the tail.
  Status truncated = ParseTrace("# bix-trace v1\nq 0 = 1\nq 1 <=", &out);
  EXPECT_FALSE(truncated.ok());
  EXPECT_NE(truncated.ToString().find("line 3"), std::string::npos)
      << truncated.ToString();

  // CRLF line endings (and a final line without a newline) parse cleanly.
  ASSERT_TRUE(ParseTrace("# bix-trace v1\r\nq 0 = 1\r\nq 1 <= 2", &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1], (TraceQuery{1, CompareOp::kLe, 2}));

  // The header is validated, not skipped: unknown versions and duplicate
  // headers fail loudly.
  EXPECT_FALSE(ParseTrace("# bix-trace v2\nq 0 = 1\n", &out).ok());
  EXPECT_FALSE(ParseTrace("# bix-trace\nq 0 = 1\n", &out).ok());
  EXPECT_FALSE(
      ParseTrace("# bix-trace v1\n# bix-trace v1\nq 0 = 1\n", &out).ok());
  EXPECT_TRUE(ParseTrace("#bix-trace v1\nq 0 = 1\n", &out).ok());

  // Optional per-query deadline: must be a positive nanosecond count.
  ASSERT_TRUE(ParseTrace("q 0 = 1 5000000\n", &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].deadline_ns, 5000000);
  EXPECT_FALSE(ParseTrace("q 0 = 1 0\n", &out).ok());
  EXPECT_FALSE(ParseTrace("q 0 = 1 -5\n", &out).ok());
  EXPECT_FALSE(ParseTrace("q 0 = 1 soon\n", &out).ok());
  EXPECT_FALSE(ParseTrace("q 0 = 1 5000 extra\n", &out).ok());

  // An empty trace (or one that is all comments) is valid and empty.
  ASSERT_TRUE(ParseTrace("", &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(ParseTrace("# bix-trace v1\n# nothing yet\n", &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(TraceTest, DeadlinesRoundTripThroughSerialize) {
  std::vector<TraceQuery> trace = {
      {0, CompareOp::kEq, 3, 0},
      {1, CompareOp::kLe, 7, 2'000'000},
  };
  std::vector<TraceQuery> parsed;
  ASSERT_TRUE(ParseTrace(SerializeTrace(trace), &parsed).ok());
  EXPECT_EQ(parsed, trace);
}

// ---------------------------------------------------------------------------
// Service

struct ServeFixture {
  TempDir dir;
  std::vector<std::unique_ptr<StoredIndex>> indexes;
  std::vector<BitmapIndex> mem;

  // Three columns with distinct designs: a compressed range-encoded BS
  // index, an equality-encoded BS index (exercises sibling-slice keys),
  // and a wah-codec BS index (exercises the compressed FetchWah cache
  // kind under kAuto).
  void Build() {
    struct Spec {
      const char* codec;
      Encoding encoding;
      uint32_t cardinality;
    };
    const Spec specs[] = {{"lz77", Encoding::kRange, 17},
                          {"none", Encoding::kEquality, 9},
                          {"wah", Encoding::kRange, 23}};
    uint64_t seed = 11;
    for (const Spec& spec : specs) {
      std::vector<uint32_t> data =
          GenerateZipf(4000, spec.cardinality, 1.2, seed++);
      BitmapIndex index = BitmapIndex::Build(
          data, spec.cardinality, KneeBase(spec.cardinality), spec.encoding);
      std::unique_ptr<StoredIndex> stored;
      Status s = StoredIndex::Write(
          index, dir.path() / std::to_string(indexes.size()),
          StorageScheme::kBitmapLevel, *CodecByName(spec.codec), &stored);
      ASSERT_TRUE(s.ok()) << s.ToString();
      mem.push_back(std::move(index));
      indexes.push_back(std::move(stored));
    }
  }

  std::vector<serve::ServeQuery> MakeQueries(size_t count) {
    TraceSpec spec;
    spec.num_columns = static_cast<uint32_t>(indexes.size());
    spec.cardinality = 9;  // within every column's domain
    spec.num_queries = count;
    spec.column_skew = 1.2;
    spec.value_skew = 1.2;
    spec.seed = 99;
    std::vector<serve::ServeQuery> queries;
    for (const TraceQuery& t : GenerateMultiTenantTrace(spec)) {
      serve::ServeQuery q;
      q.id = queries.size();
      q.column = t.column;
      q.op = t.op;
      q.value = t.v;
      queries.push_back(q);
    }
    return queries;
  }
};

// The tentpole guarantee: concurrent shared execution is observationally
// identical to sequential unshared execution — same foundsets, same
// bitmap-scan and operation counts per query (a shared hit still counts as
// one logical scan, like a buffer hit).  Only bytes_read may differ, since
// a hit reads nothing.
TEST(ServeDifferentialTest, ConcurrentSharedMatchesSequentialUnshared) {
  for (EngineKind engine : {EngineKind::kPlain, EngineKind::kAuto}) {
    SCOPED_TRACE(ToString(engine));
    ServeFixture fx;
    fx.Build();
    std::vector<serve::ServeQuery> queries = fx.MakeQueries(200);

    serve::ServeOptions sequential;
    sequential.num_threads = 1;
    sequential.share_operands = false;
    sequential.max_pending = queries.size();
    sequential.engine = engine;
    serve::QueryService reference(sequential);
    for (const auto& idx : fx.indexes) reference.AddColumn(idx.get());
    std::vector<serve::ServeResult> expected = reference.RunBatch(queries);

    serve::ServeOptions concurrent = sequential;
    concurrent.num_threads = 8;
    concurrent.share_operands = true;
    serve::QueryService service(concurrent);
    for (const auto& idx : fx.indexes) service.AddColumn(idx.get());
    std::vector<serve::ServeResult> got = service.RunBatch(queries);

    ASSERT_EQ(got.size(), expected.size());
    int64_t total_hits = 0;
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      ASSERT_TRUE(got[i].status.ok()) << got[i].status.ToString();
      ASSERT_TRUE(expected[i].status.ok());
      EXPECT_EQ(got[i].id, expected[i].id);
      EXPECT_EQ(got[i].foundset, expected[i].foundset);
      EXPECT_EQ(got[i].row_count, expected[i].row_count);
      EXPECT_EQ(got[i].stats.bitmap_scans, expected[i].stats.bitmap_scans);
      EXPECT_EQ(got[i].stats.TotalOps(), expected[i].stats.TotalOps());
      total_hits += got[i].shared_hits;
    }
    EXPECT_GT(total_hits, 0) << "a zipf trace must coalesce some fetches";
  }
}

// kAuto's k-ary OR-sides over noisy stored WAH bitmaps fold in group space
// through a per-thread scratch (bitmap/wah_kernels.cc).  Eight serve lanes
// folding at once must agree with one sequential plain lane, and stay
// race-free under scripts/check.sh --tsan and --serve.
TEST(ServeDifferentialTest, ConcurrentAutoFoldsOfNoisyWahOrSides) {
  TempDir dir;
  constexpr uint32_t kCardinality = 40;
  // ~2.5% density per bitmap: code words per group ~0.8, the group fold's
  // side of the kernel rule; 20000 rows span ten 64-group blocks.
  BitmapIndex index = BitmapIndex::Build(
      GenerateUniform(20000, kCardinality, 20261024), kCardinality,
      BaseSequence::SingleComponent(kCardinality), Encoding::kEquality);
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel,
                                 *CodecByName("wah"), &stored)
                  .ok());
  std::vector<serve::ServeQuery> queries;
  for (size_t i = 0; i < 240; ++i) {
    serve::ServeQuery q;
    q.id = i;
    q.column = 0;
    q.op = i % 3 == 0 ? CompareOp::kGe : CompareOp::kLe;
    q.value = static_cast<int64_t>(1 + (i * 7) % (kCardinality - 2));
    queries.push_back(q);
  }

  serve::ServeOptions sequential;
  sequential.num_threads = 1;
  sequential.share_operands = false;
  sequential.max_pending = queries.size();
  sequential.engine = EngineKind::kPlain;
  serve::QueryService reference(sequential);
  reference.AddColumn(stored.get());
  const std::vector<serve::ServeResult> expected = reference.RunBatch(queries);

  for (bool share : {false, true}) {
    SCOPED_TRACE(share ? "shared" : "unshared");
    serve::ServeOptions concurrent = sequential;
    concurrent.num_threads = 8;
    concurrent.share_operands = share;
    concurrent.engine = EngineKind::kAuto;
    serve::QueryService service(concurrent);
    service.AddColumn(stored.get());
    const std::vector<serve::ServeResult> got = service.RunBatch(queries);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      ASSERT_TRUE(got[i].status.ok()) << got[i].status.ToString();
      ASSERT_TRUE(expected[i].status.ok());
      EXPECT_EQ(got[i].foundset, expected[i].foundset);
      EXPECT_EQ(got[i].stats.bitmap_scans, expected[i].stats.bitmap_scans);
      EXPECT_EQ(got[i].stats.TotalOps(), expected[i].stats.TotalOps());
    }
  }
}

TEST(ServeDifferentialTest, ConcurrentUnsharedMatchesSequential) {
  ServeFixture fx;
  fx.Build();
  std::vector<serve::ServeQuery> queries = fx.MakeQueries(100);

  serve::ServeOptions sequential;
  sequential.num_threads = 1;
  sequential.share_operands = false;
  sequential.max_pending = queries.size();
  serve::QueryService reference(sequential);
  for (const auto& idx : fx.indexes) reference.AddColumn(idx.get());
  std::vector<serve::ServeResult> expected = reference.RunBatch(queries);

  serve::ServeOptions concurrent = sequential;
  concurrent.num_threads = 8;
  serve::QueryService service(concurrent);
  for (const auto& idx : fx.indexes) service.AddColumn(idx.get());
  std::vector<serve::ServeResult> got = service.RunBatch(queries);

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].status.ok()) << got[i].status.ToString();
    EXPECT_EQ(got[i].foundset, expected[i].foundset);
    EXPECT_EQ(got[i].stats, expected[i].stats)
        << "unshared stats must match field for field";
  }
}

TEST(ServeTest, RunBatchKeepsShedQueriesInTheirSlots) {
  ServeFixture fx;
  fx.Build();
  std::vector<serve::ServeQuery> queries = fx.MakeQueries(5);

  serve::ServeOptions options;
  options.num_threads = 2;
  options.max_pending = 2;
  serve::QueryService service(options);
  for (const auto& idx : fx.indexes) service.AddColumn(idx.get());

  std::vector<serve::ServeResult> results = service.RunBatch(queries);
  ASSERT_EQ(results.size(), 5u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].id, queries[i].id);
    if (i < 2) {
      EXPECT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    } else {
      EXPECT_EQ(results[i].status.code(), Status::Code::kResourceExhausted);
    }
  }
}

TEST(ServeTest, ExpiredDeadlineShedsBeforeEvaluation) {
  ServeFixture fx;
  fx.Build();
  serve::ServeOptions options;
  options.num_threads = 2;
  serve::QueryService service(options);
  for (const auto& idx : fx.indexes) service.AddColumn(idx.get());

  serve::ServeQuery q;
  q.column = 0;
  q.op = CompareOp::kLe;
  q.value = 3;
  q.deadline_ns = 1;  // expires essentially immediately
  ASSERT_TRUE(service.Admit(q).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  std::vector<serve::ServeResult> results = service.RunPending();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(results[0].row_count, 0u);
  EXPECT_EQ(results[0].stats.bitmap_scans, 0)
      << "a shed query must not touch storage";
  EXPECT_GT(results[0].latency_ns, 0);
}

TEST(ServeTest, UnknownColumnFailsTyped) {
  ServeFixture fx;
  fx.Build();
  serve::QueryService service(serve::ServeOptions{});
  for (const auto& idx : fx.indexes) service.AddColumn(idx.get());

  serve::ServeQuery q;
  q.column = 42;
  std::vector<serve::ServeResult> results = service.RunBatch({q});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), Status::Code::kInvalidArgument);
}

// A query's foundset pointer-independence: views handed out by the cache
// must survive eviction while the query still runs.  Covered structurally
// by OperandCacheTest.EvictionKeepsHandedOutOperandsAlive; here we run a
// whole service with a pathologically small cache to prove end-to-end
// correctness does not depend on residency.
TEST(ServeDifferentialTest, TinyCacheStillBitIdentical) {
  ServeFixture fx;
  fx.Build();
  std::vector<serve::ServeQuery> queries = fx.MakeQueries(120);

  serve::ServeOptions sequential;
  sequential.num_threads = 1;
  sequential.share_operands = false;
  sequential.max_pending = queries.size();
  serve::QueryService reference(sequential);
  for (const auto& idx : fx.indexes) reference.AddColumn(idx.get());
  std::vector<serve::ServeResult> expected = reference.RunBatch(queries);

  serve::ServeOptions tiny = sequential;
  tiny.num_threads = 8;
  tiny.share_operands = true;
  tiny.cache_entries = 1;  // evict on nearly every fetch
  serve::QueryService service(tiny);
  for (const auto& idx : fx.indexes) service.AddColumn(idx.get());
  std::vector<serve::ServeResult> got = service.RunBatch(queries);

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].status.ok()) << got[i].status.ToString();
    EXPECT_EQ(got[i].foundset, expected[i].foundset);
  }
}

// The differential on a cold cache per query: every operand is fetched by
// the query that needs it (no residual warmth from earlier batches).
TEST(ServeDifferentialTest, ColdCachePerQueryStillBitIdentical) {
  ServeFixture fx;
  fx.Build();
  std::vector<serve::ServeQuery> queries = fx.MakeQueries(60);

  serve::ServeOptions sequential;
  sequential.num_threads = 1;
  sequential.share_operands = false;
  sequential.max_pending = queries.size();
  serve::QueryService reference(sequential);
  for (const auto& idx : fx.indexes) reference.AddColumn(idx.get());
  std::vector<serve::ServeResult> expected = reference.RunBatch(queries);

  serve::ServeOptions shared = sequential;
  shared.num_threads = 8;
  shared.share_operands = true;
  serve::QueryService service(shared);
  for (const auto& idx : fx.indexes) service.AddColumn(idx.get());
  std::vector<serve::ServeResult> got;
  for (const serve::ServeQuery& q : queries) {
    service.cache().Clear();  // every query starts cold
    std::vector<serve::ServeResult> one = service.RunBatch({q});
    got.push_back(std::move(one[0]));
  }

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].status.ok()) << got[i].status.ToString();
    EXPECT_EQ(got[i].foundset, expected[i].foundset);
    EXPECT_EQ(got[i].stats.bitmap_scans, expected[i].stats.bitmap_scans);
  }
}

// A warm cache serves a repeated batch without a single fetch: every
// operand lookup is a hit, no query reads a byte, and the answers and scan
// counts are those of the cold run.
TEST(ServeTest, WarmRerunFetchesNothingAndReadsNoBytes) {
  ServeFixture fx;
  fx.Build();
  std::vector<serve::ServeQuery> queries = fx.MakeQueries(80);

  serve::ServeOptions options;
  options.num_threads = 4;
  options.max_pending = queries.size();
  options.share_operands = true;
  serve::QueryService service(options);
  for (const auto& idx : fx.indexes) service.AddColumn(idx.get());
  std::vector<serve::ServeResult> cold = service.RunBatch(queries);

  const int64_t misses = SharedFetchCounter("serve.shared_fetch_misses");
  std::vector<serve::ServeResult> warm = service.RunBatch(queries);
  EXPECT_EQ(SharedFetchCounter("serve.shared_fetch_misses"), misses)
      << "a warm rerun must not fetch";

  ASSERT_EQ(warm.size(), cold.size());
  for (size_t i = 0; i < warm.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ASSERT_TRUE(cold[i].status.ok()) << cold[i].status.ToString();
    ASSERT_TRUE(warm[i].status.ok()) << warm[i].status.ToString();
    EXPECT_EQ(warm[i].foundset, cold[i].foundset);
    EXPECT_EQ(warm[i].stats.bitmap_scans, cold[i].stats.bitmap_scans);
    EXPECT_EQ(warm[i].stats.bytes_read, 0);
    if (warm[i].stats.bitmap_scans > 0) {
      EXPECT_GT(warm[i].shared_hits, 0);
    }
  }
}

// With sharing off the service reads through each query's own source: the
// shared cache stays empty and no query reports a shared hit.
TEST(ServeTest, UnsharedServiceNeverFillsTheCache) {
  ServeFixture fx;
  fx.Build();
  std::vector<serve::ServeQuery> queries = fx.MakeQueries(60);

  serve::ServeOptions options;
  options.num_threads = 4;
  options.max_pending = queries.size();
  options.share_operands = false;
  serve::QueryService service(options);
  for (const auto& idx : fx.indexes) service.AddColumn(idx.get());

  const int64_t hits = SharedFetchCounter("serve.shared_fetch_hits");
  const int64_t misses = SharedFetchCounter("serve.shared_fetch_misses");
  std::vector<serve::ServeResult> got = service.RunBatch(queries);
  for (const serve::ServeResult& r : got) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.shared_hits, 0);
    if (r.stats.bitmap_scans > 0) {
      EXPECT_GT(r.stats.bytes_read, 0) << "each query reads its own operands";
    }
  }
  EXPECT_EQ(service.cache().size(), 0u);
  EXPECT_EQ(SharedFetchCounter("serve.shared_fetch_hits"), hits);
  EXPECT_EQ(SharedFetchCounter("serve.shared_fetch_misses"), misses);
}

// ---------------------------------------------------------------------------
// OperandCache soak

// Stress the cache's full lifecycle concurrently: eviction churn under a
// pathologically small capacity, a steady fraction of failed fetches
// (published to waiters, then evicted for retry), and readers that hold
// operand handles across evictions.  Every handle must stay valid and
// carry the bit pattern its key encodes; this is a prime TSan target
// (scripts/check.sh --serve).
TEST(OperandCacheSoakTest, ChurnFailuresAndOutlivingReaders) {
  serve::OperandCache::Options options;
  options.max_entries = 4;
  serve::OperandCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  constexpr uint32_t kKeys = 16;
  std::atomic<int64_t> ok_reads{0};
  std::atomic<int64_t> failed_reads{0};
  std::atomic<int64_t> wrong_bits{0};

  auto worker = [&](int tid) {
    std::vector<std::shared_ptr<const serve::CachedOperand>> held;
    for (int i = 0; i < kIters; ++i) {
      const uint32_t slot = static_cast<uint32_t>((i * 7 + tid * 3) % kKeys);
      const serve::OperandKey key = Key(0, 0, slot);
      // ~20% of fetches fail; failures must reach every joined waiter and
      // never stick in the cache.
      const bool fail = (i + tid) % 5 == 0;
      auto operand = cache.GetOrFetch(
          key,
          [&](serve::CachedOperand* out) {
            if (fail) {
              out->status = Status::IoError("soak fault");
              return;
            }
            Bitvector bits = Bitvector::Zeros(64);
            for (uint32_t b = 0; b <= slot; ++b) bits.Set(b);
            out->dense = std::move(bits);
          },
          nullptr);
      if (!operand->status.ok()) {
        failed_reads.fetch_add(1);
        continue;
      }
      // A ready operand for slot k has exactly k+1 set bits, no matter how
      // much churn happened between publish and read.
      if (operand->dense.Count() != slot + 1) wrong_bits.fetch_add(1);
      ok_reads.fetch_add(1);
      // Hold a sliding window of handles so evicted entries have live
      // readers.
      held.push_back(operand);
      if (held.size() > 8) held.erase(held.begin());
    }
    // Validate the held handles once more after all the churn.
    for (const auto& op : held) {
      if (op->status.ok() && op->dense.Count() == 0) wrong_bits.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong_bits.load(), 0);
  EXPECT_GT(ok_reads.load(), 0);
  EXPECT_GT(failed_reads.load(), 0) << "the soak must exercise failures";
  EXPECT_LE(cache.size(), options.max_entries);
}

// Staleness across a compaction swap: two generations of one column live
// in the same directory (generation 0's blobs plus generation 1's
// "g1_"-prefixed rewrite, the on-disk state mid-compaction before garbage
// collection).  While batches stream through a sharing service, the
// column is swapped to the new generation mid-flight via UpdateColumn.
// Every result must equal the old generation's oracle or the new one's,
// wholesale — an operand cached under the old index satisfying a query
// bound to the new one (or vice versa) would produce a foundset matching
// neither.  This is the regression test for OperandKey::epoch; it
// runs under TSan in scripts/check.sh --serve.
TEST(ServeTest, CompactionSwapNeverServesStaleOperands) {
  TempDir dir;
  constexpr uint32_t kCardinality = 17;
  std::vector<uint32_t> old_data = GenerateZipf(4000, kCardinality, 1.2, 7);

  BitmapIndex old_mem = BitmapIndex::Build(
      old_data, kCardinality, KneeBase(kCardinality), Encoding::kRange);
  std::unique_ptr<StoredIndex> old_gen;
  ASSERT_TRUE(StoredIndex::Write(old_mem, dir.path() / "col",
                                 StorageScheme::kBitmapLevel,
                                 *CodecByName("lz77"), &old_gen)
                  .ok());
  ASSERT_EQ(old_gen->generation(), 0u);

  // "Compact": the logical column changes (appends + deletes folded in)
  // and the rewrite lands under generation 1.  The generation-0 handle
  // stays open over its own (still present) files, exactly like a serve
  // process that keeps the old index alive while queries drain.
  std::vector<uint32_t> new_data = old_data;
  for (size_t i = 0; i < new_data.size(); i += 5) {
    new_data[i] = (new_data[i] + 3) % kCardinality;
  }
  for (size_t i = 0; i < 200; ++i) new_data.push_back(i % kCardinality);
  BitmapIndex new_mem = BitmapIndex::Build(
      new_data, kCardinality, KneeBase(kCardinality), Encoding::kRange);
  std::unique_ptr<StoredIndex> new_gen;
  ASSERT_TRUE(StoredIndex::WriteFromSource(new_mem, dir.path() / "col",
                                           StorageScheme::kBitmapLevel,
                                           *CodecByName("lz77"), &new_gen, {},
                                           /*generation=*/1)
                  .ok());
  ASSERT_EQ(new_gen->generation(), 1u);

  std::vector<serve::ServeQuery> queries;
  std::vector<Bitvector> want_old, want_new;
  for (const Query& q : RestrictedSelectionQueries(kCardinality)) {
    serve::ServeQuery sq;
    sq.id = queries.size();
    sq.column = 0;
    sq.op = q.op;
    sq.value = q.v;
    queries.push_back(sq);
    want_old.push_back(ScanEvaluate(old_data, q.op, q.v));
    want_new.push_back(ScanEvaluate(new_data, q.op, q.v));
  }

  serve::ServeOptions options;
  options.num_threads = 8;
  options.share_operands = true;
  options.max_pending = queries.size();
  serve::QueryService service(options);
  ASSERT_EQ(service.AddColumn(old_gen.get()), 0u);

  auto check_batch = [&](const std::vector<serve::ServeResult>& results,
                         bool* saw_old, bool* saw_new) {
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
      const bool is_old = results[i].foundset == want_old[i];
      const bool is_new = results[i].foundset == want_new[i];
      ASSERT_TRUE(is_old || is_new)
          << "query " << i << " matches neither generation's oracle "
          << "(a mixed-generation operand leaked through the cache)";
      if (is_old) *saw_old = true;
      if (is_new) *saw_new = true;
    }
  };

  // Warm the cache on generation 0 (the staleness hazard needs hits).
  bool saw_old = false, saw_new = false;
  check_batch(service.RunBatch(queries), &saw_old, &saw_new);
  ASSERT_TRUE(saw_old && !saw_new);

  // Swap mid-stream from another thread while batches keep running.
  std::atomic<bool> swapped{false};
  std::thread swapper([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    service.UpdateColumn(0, new_gen.get());
    swapped.store(true, std::memory_order_release);
  });
  while (!swapped.load(std::memory_order_acquire)) {
    check_batch(service.RunBatch(queries), &saw_old, &saw_new);
    if (HasFatalFailure()) break;
  }
  swapper.join();
  ASSERT_FALSE(HasFatalFailure());

  // After the swap every batch is answered by generation 1 alone.
  saw_old = saw_new = false;
  check_batch(service.RunBatch(queries), &saw_old, &saw_new);
  EXPECT_TRUE(saw_new && !saw_old);
}

// Staleness across a *rebuild* swap: unlike a compaction, a full rebuild
// via StoredIndex::Write lands at on-disk generation 0 — the same number
// the replaced index carries.  The cache key must therefore use the
// service's per-swap epoch, not the on-disk generation: keying on the
// generation would let post-swap queries consume operands cached from the
// old data (identical design ⇒ identical (column, component, slot)
// coordinates) and silently return the old index's foundsets.
TEST(ServeTest, RebuildSwapSameGenerationNeverServesStaleOperands) {
  TempDir dir;
  constexpr uint32_t kCardinality = 17;
  std::vector<uint32_t> old_data = GenerateZipf(4000, kCardinality, 1.2, 7);
  std::vector<uint32_t> new_data = old_data;
  for (size_t i = 0; i < new_data.size(); i += 3) {
    new_data[i] = (new_data[i] + 5) % kCardinality;
  }

  auto write_index = [&](const std::vector<uint32_t>& data,
                         const std::string& name) {
    BitmapIndex mem = BitmapIndex::Build(
        data, kCardinality, KneeBase(kCardinality), Encoding::kRange);
    std::unique_ptr<StoredIndex> stored;
    EXPECT_TRUE(StoredIndex::Write(mem, dir.path() / name,
                                   StorageScheme::kBitmapLevel,
                                   *CodecByName("lz77"), &stored)
                    .ok());
    return stored;
  };
  std::unique_ptr<StoredIndex> old_idx = write_index(old_data, "old");
  std::unique_ptr<StoredIndex> new_idx = write_index(new_data, "new");
  // The hazard under test: both incarnations report the same on-disk
  // generation, so nothing but the serve epoch separates their operands.
  ASSERT_EQ(old_idx->generation(), new_idx->generation());

  std::vector<serve::ServeQuery> queries;
  std::vector<Bitvector> want_old, want_new;
  for (const Query& q : RestrictedSelectionQueries(kCardinality)) {
    serve::ServeQuery sq;
    sq.id = queries.size();
    sq.column = 0;
    sq.op = q.op;
    sq.value = q.v;
    queries.push_back(sq);
    want_old.push_back(ScanEvaluate(old_data, q.op, q.v));
    want_new.push_back(ScanEvaluate(new_data, q.op, q.v));
  }

  serve::ServeOptions options;
  options.num_threads = 1;  // deterministic: the staleness needs no race
  options.share_operands = true;
  options.max_pending = queries.size();
  serve::QueryService service(options);
  ASSERT_EQ(service.AddColumn(old_idx.get()), 0u);

  // Warm the cache on the old incarnation.
  std::vector<serve::ServeResult> before = service.RunBatch(queries);
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_TRUE(before[i].status.ok()) << before[i].status.ToString();
    ASSERT_EQ(before[i].foundset, want_old[i]);
  }

  service.UpdateColumn(0, new_idx.get());

  // Every post-swap foundset must come from the new data; a cached gen-0
  // operand surviving the swap would reproduce want_old here.
  std::vector<serve::ServeResult> after = service.RunBatch(queries);
  for (size_t i = 0; i < after.size(); ++i) {
    ASSERT_TRUE(after[i].status.ok()) << after[i].status.ToString();
    EXPECT_EQ(after[i].foundset, want_new[i])
        << "query " << i << " served a stale operand cached from the "
        << "replaced index (on-disk generation reused across the swap)";
  }
}

}  // namespace
}  // namespace bix
