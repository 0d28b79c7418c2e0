// Shared-operand cache with single-flight fetch semantics.
//
// Under a multi-tenant workload concurrent queries probe the *same*
// bitmaps: a zipfian trace concentrates its predicates on hot columns and
// hot values, so the dominant cost — operand materialization (read, verify,
// decode), not the logical operations — is paid many times over for the
// same (column, component, slot).  This cache converts that redundant work
// into shared work: the first query to need an operand fetches it; every
// concurrent query that arrives while the fetch is in flight waits on the
// same entry and consumes the same immutable bitmap, and later queries hit
// it outright.
//
// Single-flight discipline (GetOrFetch, the cache's one entry point):
//  * The lookup runs under the cache mutex.  A miss inserts a pending entry
//    and makes the caller the one fetcher for this key; the fetch itself
//    runs with no cache lock held (cold fetches overlap with other
//    queries' compute and with each other across keys), and its result is
//    published through the entry's own mutex + condvar.
//  * Concurrent lookups of the same key join the pending entry and block
//    on it, never issuing a second fetch.  Joiners count as shared-fetch
//    hits: the work was shared even though nobody had finished it yet.
//  * A failed fetch delivers its Status to the waiters that joined the
//    flight, then evicts the entry, so transient I/O errors are retried by
//    the next query rather than being cached forever.
//
// Entries are immutable once ready and handed out as shared_ptr, so an
// eviction can never invalidate a bitmap an in-flight query still reads.
// Eviction is LRU by ready-entry count (pending entries are pinned).
//
// Thread safety: all public methods are safe to call concurrently.

#ifndef BIX_SERVE_OPERAND_CACHE_H_
#define BIX_SERVE_OPERAND_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "core/status.h"

namespace bix::serve {

/// Identity of one cached operand.  `kind` separates the dense and the
/// compressed representation of the same stored bitmap (a WAH-direct fetch
/// and a dense fetch of the same slot are different payloads); `codec` is
/// folded into the column id by the service (a column is one opened index,
/// which fixes its codec), so equal keys always denote byte-identical
/// fetches.
struct OperandKey {
  uint32_t column = 0;
  int32_t component = 0;
  uint32_t slot = 0;
  /// The column's serve epoch at the time the query bound its index: a
  /// service-assigned counter bumped on *every* UpdateColumn swap (see
  /// QueryService), never the on-disk StoredIndex generation — a full
  /// rebuild restarts the on-disk generation at 0, so it can repeat, and a
  /// repeated key would let a query on the new index consume operands
  /// cached from the old data.  Folding the never-reused epoch into the
  /// key makes operands from different swaps distinct cache citizens:
  /// after a swap, a query bound to the new index can never consume an
  /// operand fetched from the previous index's blobs (stale entries age
  /// out of the LRU unused).
  uint32_t epoch = 0;
  enum class Kind : uint8_t { kDense = 0, kWah = 1 };
  Kind kind = Kind::kDense;

  bool operator==(const OperandKey& o) const {
    return column == o.column && component == o.component && slot == o.slot &&
           epoch == o.epoch && kind == o.kind;
  }
};

struct OperandKeyHash {
  size_t operator()(const OperandKey& k) const {
    uint64_t x = (static_cast<uint64_t>(k.column) << 40) ^
                 (static_cast<uint64_t>(static_cast<uint32_t>(k.component))
                  << 32) ^
                 (static_cast<uint64_t>(k.slot) << 1) ^
                 (static_cast<uint64_t>(k.epoch) << 17) ^
                 static_cast<uint64_t>(k.kind);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

/// One fetched operand.  Immutable after `ready`; exactly one of
/// dense/wah is populated, per the key's kind.
struct CachedOperand {
  Bitvector dense;
  WahBitvector wah;
  /// The fetch served a sibling-reconstructed bitmap; consumers inherit the
  /// degraded flag.
  bool degraded = false;
  Status status;  // non-OK: the fetch failed and the entry was evicted
};

class OperandCache {
 public:
  struct Options {
    /// Ready entries retained (LRU beyond this).  Pending fetches are
    /// pinned on top of the cap.
    size_t max_entries = 4096;
  };

  OperandCache() : OperandCache(Options{}) {}
  explicit OperandCache(const Options& options);

  /// The fetch callback: fill `out` or return the failure through
  /// out->status.  Runs without any cache lock held.
  using FetchFn = std::function<void(CachedOperand* out)>;

  /// Single-flight lookup: the first caller for a key runs `fetch` and
  /// publishes the result; concurrent callers wait for it.  Returns the
  /// ready (possibly failed) operand.  `*was_hit` reports whether this
  /// call was served without running `fetch` — including joining a fetch
  /// already in flight.  Counts serve.shared_fetch_{hits,misses}.
  std::shared_ptr<const CachedOperand> GetOrFetch(const OperandKey& key,
                                                  const FetchFn& fetch,
                                                  bool* was_hit);

  /// Ready entries currently resident.
  size_t size() const;

  /// Drops every ready entry (in-flight fetches complete normally; their
  /// waiters still see the result).
  void Clear();

 private:
  struct Entry {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;             // guarded by mu
    CachedOperand operand;          // immutable once ready
    std::list<OperandKey>::iterator lru_it;
    bool in_lru = false;            // guarded by the cache mutex
  };

  // A single-flight claim on one key: an owner must Publish exactly once
  // (or every Await on the key blocks forever); a joiner Awaits the entry
  // someone else is fetching (or has fetched).
  struct Flight {
    std::shared_ptr<Entry> entry;
    OperandKey key;
    bool owner = false;
  };

  // Non-blocking lookup: on a miss, inserts a pending entry and returns
  // the owner flight; otherwise joins the existing (pending or ready)
  // entry.
  Flight Begin(const OperandKey& key);

  // Owner-only: publishes `operand` (success or failure), wakes every
  // Await, and completes the entry's cache lifecycle — LRU insertion on
  // success, eviction on failure so the next query retries.
  std::shared_ptr<const CachedOperand> Publish(const Flight& flight,
                                               CachedOperand operand);

  // Blocks until the flight's entry is ready and returns its operand.
  std::shared_ptr<const CachedOperand> Await(const Flight& flight) const;

  void TouchLocked(const std::shared_ptr<Entry>& entry, const OperandKey& key);
  void EvictIfNeededLocked();

  const Options options_;
  mutable std::mutex mu_;
  std::unordered_map<OperandKey, std::shared_ptr<Entry>, OperandKeyHash> map_;
  std::list<OperandKey> lru_;  // front = most recent; ready entries only
  size_t num_ready_ = 0;
};

}  // namespace bix::serve

#endif  // BIX_SERVE_OPERAND_CACHE_H_
