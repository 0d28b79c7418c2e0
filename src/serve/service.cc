#include "serve/service.h"

#include <utility>

#include "exec/segmented_eval.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "serve/sharing_source.h"

namespace bix::serve {

namespace {

obs::Counter& DeadlineMissCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("serve.deadline_misses");
  return c;
}

obs::Histogram& LatencyHistogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("serve.latency_ns");
  return h;
}

}  // namespace

QueryService::QueryService(const ServeOptions& options)
    : options_(options),
      admission_(AdmissionController::Options{
          options.max_pending, options.default_deadline_ns}),
      cache_(OperandCache::Options{options.cache_entries}) {}

uint32_t QueryService::AddColumn(const StoredIndex* index) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  all_slots_.push_back(std::make_unique<const ColumnSlot>(
      ColumnSlot{index, next_epoch_++}));
  columns_.push_back(std::make_unique<std::atomic<const ColumnSlot*>>(
      all_slots_.back().get()));
  return static_cast<uint32_t>(columns_.size() - 1);
}

void QueryService::UpdateColumn(uint32_t id, const StoredIndex* index) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  // A fresh epoch per swap — never the index's on-disk generation, which a
  // full rebuild restarts at 0 and which would resurrect the replaced
  // index's cache entries (see OperandKey::epoch).
  all_slots_.push_back(std::make_unique<const ColumnSlot>(
      ColumnSlot{index, next_epoch_++}));
  columns_[id]->store(all_slots_.back().get(), std::memory_order_release);
}

Status QueryService::Admit(const ServeQuery& query) {
  return admission_.Admit(query);
}

ServeResult QueryService::RunOne(const AdmittedQuery& admitted) {
  obs::ProfSpan span("serve", "query");
  ServeResult result;
  result.id = admitted.query.id;

  auto finish = [&]() {
    result.latency_ns = MonotonicNowNs() - admitted.admit_ns;
    LatencyHistogram().Observe(result.latency_ns);
  };

  // A deadline that passed while the query sat in the queue sheds it
  // before any storage work.
  if (admitted.deadline_ns != 0 && MonotonicNowNs() > admitted.deadline_ns) {
    DeadlineMissCounter().Increment();
    result.status = Status::DeadlineExceeded("deadline passed in queue");
    finish();
    return result;
  }

  if (admitted.query.column >= columns_.size()) {
    result.status = Status::InvalidArgument("unknown column");
    finish();
    return result;
  }
  // One load binds this query to an (index, epoch) pair for its whole
  // execution; a concurrent UpdateColumn cannot tear them apart.
  const ColumnSlot* slot =
      columns_[admitted.query.column]->load(std::memory_order_acquire);
  const StoredIndex* index = slot->index;

  auto source = index->OpenQuerySource(&result.stats);
  if (!source->status().ok()) {
    result.status = source->status();
    finish();
    return result;
  }

  const bool wah_direct = index->scheme() == StorageScheme::kBitmapLevel &&
                          index->codec().name() == "wah";
  // Parallelism lives across queries (RunPending), not within one.
  const ExecOptions exec{.engine = options_.engine};

  Bitvector foundset;
  if (options_.share_operands) {
    SharingSource sharing(source.get(), &cache_, admitted.query.column,
                          wah_direct, slot->epoch);
    foundset = EvaluatePredicate(sharing, EvalAlgorithm::kAuto,
                                 admitted.query.op, admitted.query.value, exec,
                                 &result.stats);
    result.shared_hits = sharing.shared_hits();
    result.degraded = sharing.degraded();
    if (!sharing.status().ok()) result.status = sharing.status();
  } else {
    foundset = EvaluatePredicate(*source, EvalAlgorithm::kAuto,
                                 admitted.query.op, admitted.query.value, exec,
                                 &result.stats);
    result.degraded = source->degraded();
    if (!source->status().ok()) result.status = source->status();
  }

  if (result.status.ok() && admitted.deadline_ns != 0 &&
      MonotonicNowNs() > admitted.deadline_ns) {
    // Finished, but too late to be useful: report the miss, drop the
    // foundset.
    DeadlineMissCounter().Increment();
    result.status = Status::DeadlineExceeded("deadline passed during eval");
  }
  if (result.status.ok()) {
    // The evaluation ran over the index's physical bitmap order; a sorted
    // index's results must surface original (logical) row ids.
    if (!index->row_order().empty()) {
      foundset = RemapToLogical(foundset, index->row_order());
    }
    result.row_count = foundset.Count();
    result.foundset = std::move(foundset);
  }
  finish();
  return result;
}

std::vector<ServeResult> QueryService::RunPending() {
  std::vector<AdmittedQuery> batch = admission_.TakeAll();
  std::vector<ServeResult> results(batch.size());
  if (batch.empty()) return results;

  const int lanes = options_.num_threads > 1 ? options_.num_threads : 1;
  if (lanes == 1) {
    for (size_t i = 0; i < batch.size(); ++i) results[i] = RunOne(batch[i]);
    return results;
  }
  // The submitting thread is lane 0, so the pool needs lanes - 1 workers.
  exec::ThreadPool& pool = exec::SharedPool(lanes - 1);
  pool.ParallelFor(batch.size(), lanes - 1,
                   [&](size_t task, int /*lane*/) {
                     results[task] = RunOne(batch[task]);
                   });
  return results;
}

std::vector<ServeResult> QueryService::RunBatch(
    const std::vector<ServeQuery>& queries) {
  // Track which inputs were admitted so shed queries keep their slot in the
  // output.
  std::vector<ServeResult> results(queries.size());
  std::vector<size_t> admitted_slots;
  admitted_slots.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Status s = admission_.Admit(queries[i]);
    if (s.ok()) {
      admitted_slots.push_back(i);
    } else {
      results[i].id = queries[i].id;
      results[i].status = std::move(s);
    }
  }
  std::vector<ServeResult> ran = RunPending();
  // RunPending drains in admission order == admitted_slots order.  (Nothing
  // else may Admit concurrently with RunBatch; see the class comment.)
  for (size_t j = 0; j < ran.size() && j < admitted_slots.size(); ++j) {
    results[admitted_slots[j]] = std::move(ran[j]);
  }
  return results;
}

}  // namespace bix::serve
