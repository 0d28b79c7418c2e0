// Concurrent query service: admission -> shared-operand planning ->
// parallel evaluation (DESIGN.md §12).
//
// A QueryService owns the serving loop for a set of opened stored indexes
// ("columns").  Queries are admitted through a bounded AdmissionController,
// then each batch runs on the shared exec thread pool — one *query* per
// pool task, evaluated single-threaded internally (the pool's parallelism
// budget is spent across queries, where a multi-tenant workload has its
// concurrency).  Every query's operand fetches route through one shared
// OperandCache with single-flight semantics, so concurrent queries against
// hot columns coalesce their storage reads.
//
// Determinism guarantee: foundsets and EvalStats scan/op counts are
// bit-identical to running the same queries sequentially without sharing —
// the cache changes who pays for a fetch, never what is fetched or how the
// algorithms combine it (tests/serve_test.cc holds this differentially).
//
// Thread safety: AddColumn calls must finish before serving starts.
// Admit() is safe from any thread; RunPending/RunBatch must not overlap
// with each other (one drain loop at a time).

#ifndef BIX_SERVE_SERVICE_H_
#define BIX_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "bitmap/bitvector.h"
#include "core/eval.h"
#include "core/eval_stats.h"
#include "core/status.h"
#include "serve/admission.h"
#include "serve/operand_cache.h"
#include "storage/stored_index.h"

namespace bix::serve {

struct ServeOptions {
  /// Total evaluation lanes for a batch (1 = sequential drain, no pool).
  int num_threads = 4;
  /// Admission queue bound (see AdmissionController).
  size_t max_pending = 256;
  /// Default per-query deadline, relative to admission; 0 = none.
  int64_t default_deadline_ns = 0;
  /// Shared-operand cache capacity in ready entries.
  size_t cache_entries = 4096;
  /// False disables cross-query sharing (every query fetches through its
  /// own storage view) — the control arm for bench-serve.
  bool share_operands = true;
  /// Operator substrate for evaluation (core/eval.h).
  EngineKind engine = EngineKind::kPlain;
};

/// Outcome of one served query.
struct ServeResult {
  uint64_t id = 0;
  Status status;
  /// The foundset, in logical (original) row ids — row-reordered indexes
  /// are remapped before the result leaves the service (empty when status
  /// is non-OK).
  Bitvector foundset;
  uint64_t row_count = 0;  // foundset popcount
  bool degraded = false;   // served via sibling reconstruction
  int64_t latency_ns = 0;  // admission -> completion (or shed)
  int64_t shared_hits = 0; // operand fetches served from the shared cache
  EvalStats stats;         // scans/ops/bytes attributed to this query
};

class QueryService {
 public:
  explicit QueryService(const ServeOptions& options);

  /// Registers an opened index for serving and returns its column id
  /// (assigned densely in call order).  The index is borrowed and must
  /// outlive the service.  Not safe concurrently with serving.
  uint32_t AddColumn(const StoredIndex* index);

  /// Atomically swaps column `id` to a new index — the compaction (or
  /// rebuild) publication point.  Safe concurrently with serving.  A query
  /// binds to an index when it *executes* (RunOne loads the column slot),
  /// not when it is admitted: a query admitted before the swap but
  /// executed after it runs against the new index.  The caller must
  /// therefore keep the old index alive until every query that already
  /// loaded its pointer completes — draining the in-flight batches after
  /// the swap suffices.  Staleness safety does not depend on that timing:
  /// each swap is assigned a fresh serve epoch stamped into the cache keys
  /// (OperandKey::epoch), so a query bound to the new index can never
  /// consume an operand cached from the old one — even when both indexes
  /// carry the same on-disk generation (e.g. a gen-0 full rebuild
  /// replacing a gen-0 original).
  void UpdateColumn(uint32_t id, const StoredIndex* index);

  size_t num_columns() const { return columns_.size(); }
  const StoredIndex* column(uint32_t id) const {
    return columns_[id]->load(std::memory_order_acquire)->index;
  }

  /// Admits one query (see AdmissionController::Admit).
  Status Admit(const ServeQuery& query);

  /// Drains the pending queue and evaluates every admitted query on up to
  /// `num_threads` lanes.  Results are in admission order.
  std::vector<ServeResult> RunPending();

  /// Convenience: admits `queries` then runs the batch.  Queries the
  /// controller sheds still yield a ServeResult (ResourceExhausted), so
  /// the output always has one entry per input, in input order.
  std::vector<ServeResult> RunBatch(const std::vector<ServeQuery>& queries);

  OperandCache& cache() { return cache_; }
  size_t pending() const { return admission_.pending(); }

 private:
  /// One published binding of a column id: the index plus the serve epoch
  /// assigned when it was published.  Immutable once published (queries
  /// read both fields through one atomic pointer load, so index and epoch
  /// can never be observed mismatched across a racing swap).
  struct ColumnSlot {
    const StoredIndex* index = nullptr;
    uint32_t epoch = 0;
  };

  ServeResult RunOne(const AdmittedQuery& admitted);

  const ServeOptions options_;
  AdmissionController admission_;
  OperandCache cache_;
  // Atomic slots so UpdateColumn can swap a column mid-serve; the vector
  // itself is append-only before serving starts.
  std::vector<std::unique_ptr<std::atomic<const ColumnSlot*>>> columns_;
  // Owns every ColumnSlot ever published.  Superseded slots are retained
  // until destruction: an executing query may still hold a pointer loaded
  // just before a swap, and slots are two words — the leak is bounded by
  // the number of UpdateColumn calls.
  std::vector<std::unique_ptr<const ColumnSlot>> all_slots_;
  std::mutex publish_mu_;  // serializes AddColumn/UpdateColumn publication
  uint32_t next_epoch_ = 0;  // guarded by publish_mu_; never reused
};

}  // namespace bix::serve

#endif  // BIX_SERVE_SERVICE_H_
