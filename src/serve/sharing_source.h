// Per-query BitmapSource decorator that routes operand fetches through the
// service's shared OperandCache.
//
// One SharingSource wraps one QuerySource (storage/stored_index.h) for the
// duration of one query.  Every Fetch/FetchView/FetchWah consults the cache
// with single-flight semantics; on a miss this query performs the storage
// fetch through the inner source, on a hit it consumes the cached immutable
// bitmap.  Pointers handed out by FetchView/FetchWah stay valid for the
// query's lifetime: the source pins the backing cache entries until it is
// destroyed, so an eviction can never invalidate an operand mid-query.
//
// Accounting: bitmap-scan counts are identical to the unshared path — a hit
// is still one logical operand access, exactly as a buffer hit counts one
// scan — so foundsets AND EvalStats scan/op counts match a sequential
// replay bit for bit.  Bytes read and decompress time are charged only to
// the query that actually performed the fetch (hits read nothing).
//
// Not thread-safe: one instance serves one query on one thread (the cache
// it shares is what's concurrent).

#ifndef BIX_SERVE_SHARING_SOURCE_H_
#define BIX_SERVE_SHARING_SOURCE_H_

#include <cstdint>
#include <deque>
#include <memory>

#include "core/eval_stats.h"
#include "serve/operand_cache.h"
#include "storage/stored_index.h"

namespace bix::serve {

class SharingSource final : public QuerySource {
 public:
  /// `inner` is this query's storage view; it charges the bytes of every
  /// fetch this query performs to its own stats.  `wah_direct` says the
  /// column serves WAH operand payloads (BS scheme + "wah" codec), enabling
  /// the compressed cache kind.  Both pointers are borrowed and must
  /// outlive this object.  `epoch` is the column's serve epoch at the
  /// moment the query bound its index (the service bumps it on every
  /// column swap); it is stamped into every cache key so this query can
  /// never consume an operand cached from an earlier incarnation of the
  /// column (see OperandKey::epoch).
  SharingSource(QuerySource* inner, OperandCache* cache, uint32_t column,
                bool wah_direct, uint32_t epoch);

  const BaseSequence& base() const override { return inner_->base(); }
  Encoding encoding() const override { return inner_->encoding(); }
  size_t num_records() const override { return inner_->num_records(); }
  uint32_t cardinality() const override { return inner_->cardinality(); }
  const Bitvector& non_null() const override { return inner_->non_null(); }
  const WahBitvector* NonNullWah() const override {
    return inner_->NonNullWah();
  }

  Bitvector Fetch(int component, uint32_t slot,
                  EvalStats* stats) const override;
  const Bitvector* FetchView(int component, uint32_t slot,
                             EvalStats* stats) const override;
  const WahBitvector* FetchWah(int component, uint32_t slot,
                               EvalStats* stats) const override;

  /// First failure seen by this query, through either the cache or the
  /// inner source.
  const Status& status() const override;
  /// True when this query consumed a sibling-reconstructed bitmap (its own
  /// fetch or a cached one).
  bool degraded() const override { return degraded_ || inner_->degraded(); }

  int64_t shared_hits() const { return shared_hits_; }

 private:
  // Cache lookup + single-flight fetch for one operand; returns the ready
  // entry and updates this query's error/degraded state.
  std::shared_ptr<const CachedOperand> GetOperand(
      int component, uint32_t slot, OperandKey::Kind kind) const;

  QuerySource* inner_;
  OperandCache* cache_;
  const uint32_t column_;
  const uint32_t epoch_;
  const bool wah_direct_;
  // Entries whose bitmaps were handed out as views; pinned until the query
  // finishes.
  mutable std::deque<std::shared_ptr<const CachedOperand>> pinned_;
  mutable Status status_;
  mutable bool degraded_ = false;
  mutable int64_t shared_hits_ = 0;
};

}  // namespace bix::serve

#endif  // BIX_SERVE_SHARING_SOURCE_H_
