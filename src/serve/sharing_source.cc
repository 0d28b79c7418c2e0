#include "serve/sharing_source.h"

#include <utility>

#include "obs/profile.h"

namespace bix::serve {

namespace {

// One logical operand access, hit or miss — the same single scan the
// unshared path counts.
void CountScan(EvalStats* stats) {
  if (stats != nullptr) {
    ++stats->bitmap_scans;
    obs::ProfCount(obs::ProfCounter::kBitmapScans);
  }
}

}  // namespace

SharingSource::SharingSource(QuerySource* inner, OperandCache* cache,
                             uint32_t column, bool wah_direct,
                             uint32_t epoch)
    : inner_(inner),
      cache_(cache),
      column_(column),
      epoch_(epoch),
      wah_direct_(wah_direct) {}

const Status& SharingSource::status() const {
  if (!status_.ok()) return status_;
  return inner_->status();
}

std::shared_ptr<const CachedOperand> SharingSource::GetOperand(
    int component, uint32_t slot, OperandKey::Kind kind) const {
  OperandKey key;
  key.column = column_;
  key.component = component;
  key.slot = slot;
  key.epoch = epoch_;
  key.kind = kind;

  bool hit = false;
  auto operand = cache_->GetOrFetch(
      key,
      [&](CachedOperand* out) {
        // The inner source charges the bytes it reads to this query's
        // stats, so only the fetching query pays for the payload.
        const bool degraded_before = inner_->degraded();
        if (kind == OperandKey::Kind::kWah) {
          const WahBitvector* wah = inner_->FetchWah(component, slot, nullptr);
          if (wah == nullptr) {
            // No compressed payload (or it failed verification): not an
            // error — the caller falls back to the dense kind.
            out->status = Status::NotFound("no wah payload");
            return;
          }
          out->wah = *wah;
        } else {
          Status before = inner_->status();
          out->dense = inner_->Fetch(component, slot, nullptr);
          if (before.ok() && !inner_->status().ok()) {
            out->status = inner_->status();
            return;
          }
        }
        if (!degraded_before && inner_->degraded()) out->degraded = true;
      },
      &hit);

  if (hit) {
    ++shared_hits_;
    if (operand->degraded) degraded_ = true;
    if (!operand->status.ok() && status_.ok() &&
        operand->status.code() != Status::Code::kNotFound) {
      status_ = operand->status;
    }
  }
  return operand;
}

Bitvector SharingSource::Fetch(int component, uint32_t slot,
                               EvalStats* stats) const {
  // A query that already failed bypasses the cache: its fetches return
  // empty bitmaps by contract and must not pollute shared entries.
  if (!inner_->status().ok()) return inner_->Fetch(component, slot, stats);
  // The unshared path counts the scan before attempting the read; mirror
  // that so failed queries report identical scan counts.
  CountScan(stats);
  auto operand = GetOperand(component, slot, OperandKey::Kind::kDense);
  if (!operand->status.ok()) return Bitvector::Zeros(num_records());
  return operand->dense;
}

const Bitvector* SharingSource::FetchView(int component, uint32_t slot,
                                          EvalStats* stats) const {
  if (!inner_->status().ok()) return nullptr;
  auto operand = GetOperand(component, slot, OperandKey::Kind::kDense);
  if (!operand->status.ok()) {
    // Per the FetchView contract nothing was counted; the caller falls
    // back to Fetch(), which counts the scan and surfaces the failure.
    return nullptr;
  }
  CountScan(stats);
  const Bitvector* view = &operand->dense;
  pinned_.push_back(std::move(operand));
  return view;
}

const WahBitvector* SharingSource::FetchWah(int component, uint32_t slot,
                                            EvalStats* stats) const {
  if (!wah_direct_) return nullptr;
  if (!inner_->status().ok()) return nullptr;
  auto operand = GetOperand(component, slot, OperandKey::Kind::kWah);
  if (!operand->status.ok()) return nullptr;
  CountScan(stats);
  const WahBitvector* view = &operand->wah;
  pinned_.push_back(std::move(operand));
  return view;
}

}  // namespace bix::serve
