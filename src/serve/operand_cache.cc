#include "serve/operand_cache.h"

#include <utility>

#include "obs/metrics.h"

#include "core/check.h"

namespace bix::serve {

namespace {

// The cross-query sharing counters: hit = joined or ready, miss = this
// caller fetches.
obs::Counter& SharedHitCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("serve.shared_fetch_hits");
  return c;
}

obs::Counter& SharedMissCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("serve.shared_fetch_misses");
  return c;
}

}  // namespace

OperandCache::OperandCache(const Options& options) : options_(options) {}

OperandCache::Flight OperandCache::Begin(const OperandKey& key) {
  Flight flight;
  flight.key = key;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    flight.entry = it->second;
    if (flight.entry->in_lru) TouchLocked(flight.entry, key);
  } else {
    flight.entry = std::make_shared<Entry>();
    map_.emplace(key, flight.entry);
    flight.owner = true;
  }
  return flight;
}

std::shared_ptr<const CachedOperand> OperandCache::Publish(
    const Flight& flight, CachedOperand operand) {
  BIX_CHECK(flight.owner && flight.entry != nullptr);
  const std::shared_ptr<Entry>& entry = flight.entry;
  const bool failed = !operand.status.ok();
  {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    entry->operand = std::move(operand);
    entry->ready = true;
  }
  entry->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The map may no longer point at this entry (Clear ran, or — after a
    // failure-eviction — a retry began a new flight); only the current
    // occupant joins the LRU.
    auto it = map_.find(flight.key);
    if (failed) {
      // Publish to the waiters that joined this flight, but let the next
      // query retry instead of caching the failure.
      if (it != map_.end() && it->second == entry) map_.erase(it);
    } else {
      if (it != map_.end() && it->second == entry) {
        entry->lru_it = lru_.insert(lru_.begin(), flight.key);
        entry->in_lru = true;
        ++num_ready_;
        EvictIfNeededLocked();
      }
    }
  }
  return std::shared_ptr<const CachedOperand>(entry, &entry->operand);
}

std::shared_ptr<const CachedOperand> OperandCache::Await(
    const Flight& flight) const {
  BIX_CHECK(flight.entry != nullptr);
  const std::shared_ptr<Entry>& entry = flight.entry;
  std::unique_lock<std::mutex> entry_lock(entry->mu);
  entry->cv.wait(entry_lock, [&] { return entry->ready; });
  return std::shared_ptr<const CachedOperand>(entry, &entry->operand);
}

std::shared_ptr<const CachedOperand> OperandCache::GetOrFetch(
    const OperandKey& key, const FetchFn& fetch, bool* was_hit) {
  Flight flight = Begin(key);
  if (flight.owner) {
    SharedMissCounter().Increment();
    if (was_hit != nullptr) *was_hit = false;
    // The expensive part — read, verify, decode — runs with no cache lock,
    // overlapping with other queries' compute and with fetches of other
    // keys.
    CachedOperand fetched;
    fetch(&fetched);
    return Publish(flight, std::move(fetched));
  }
  SharedHitCounter().Increment();
  if (was_hit != nullptr) *was_hit = true;
  return Await(flight);
}

size_t OperandCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_ready_;
}

void OperandCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second->in_lru) {
      lru_.erase(it->second->lru_it);
      it->second->in_lru = false;
      --num_ready_;
      it = map_.erase(it);
    } else {
      ++it;  // pending: the in-flight fetcher will publish and insert
    }
  }
}

void OperandCache::TouchLocked(const std::shared_ptr<Entry>& entry,
                               const OperandKey& key) {
  lru_.erase(entry->lru_it);
  entry->lru_it = lru_.insert(lru_.begin(), key);
}

void OperandCache::EvictIfNeededLocked() {
  while (num_ready_ > options_.max_entries && !lru_.empty()) {
    const OperandKey& victim = lru_.back();
    auto it = map_.find(victim);
    if (it != map_.end() && it->second->in_lru) {
      it->second->in_lru = false;
      map_.erase(it);  // shared_ptr keeps live readers valid
    }
    lru_.pop_back();
    --num_ready_;
  }
}

}  // namespace bix::serve
