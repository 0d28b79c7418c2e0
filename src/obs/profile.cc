#include "obs/profile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>
#include <sstream>

#include "obs/metrics.h"

namespace bix::obs {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Thread-local current span, validated against the session epoch so a
// handle surviving across Enable() calls can never dangle into a cleared
// tree.
struct TlsState {
  ProfNode* node = nullptr;
  uint64_t epoch = 0;
};
thread_local TlsState tls;

std::string FormatNs(int64_t ns) {
  char buf[32];
  if (ns >= 1000000000) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  }
  return buf;
}

}  // namespace

const char* ToShortString(ProfCounter c) {
  switch (c) {
    case ProfCounter::kBitmapScans: return "scans";
    case ProfCounter::kBytesRead: return "bytes";
    case ProfCounter::kBufferHits: return "hits";
    case ProfCounter::kAndOps: return "and";
    case ProfCounter::kOrOps: return "or";
    case ProfCounter::kXorOps: return "xor";
    case ProfCounter::kNotOps: return "not";
    case ProfCounter::kWahCompressedOps: return "wah_c";
    case ProfCounter::kWahPlainOps: return "wah_p";
    case ProfCounter::kNumCounters: break;
  }
  return "?";
}

struct ProfNode {
  std::string name;
  const char* category = "";
  ProfNode* parent = nullptr;
  std::vector<ProfNode*> children;  // guarded by Profiler::Impl::mu
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> wall_ns{0};
  std::array<std::atomic<int64_t>, kNumProfCounters> counters{};
};

struct Profiler::Impl {
  std::mutex mu;
  std::deque<ProfNode> arena;  // stable addresses; cleared per session
  ProfNode* root = nullptr;
  std::atomic<uint64_t> epoch{0};
};

std::atomic<bool> Profiler::enabled_{false};

Profiler::Profiler() : impl_(new Impl()) {}

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();
  return *profiler;
}

void Profiler::Enable() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->arena.clear();
  impl_->arena.emplace_back();
  impl_->root = &impl_->arena.back();
  impl_->root->name = "query";
  impl_->root->category = "profile";
  impl_->epoch.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Profiler::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

ProfHandle Profiler::CurrentHandle() {
  if (!enabled()) return {};
  Profiler& p = Global();
  uint64_t epoch = p.impl_->epoch.load(std::memory_order_relaxed);
  ProfNode* node = (tls.epoch == epoch) ? tls.node : nullptr;
  if (node == nullptr) node = p.impl_->root;
  return {node, epoch};
}

void Profiler::CountSlow(ProfCounter c, int64_t delta) {
  Profiler& p = Global();
  uint64_t epoch = p.impl_->epoch.load(std::memory_order_relaxed);
  ProfNode* node = (tls.epoch == epoch) ? tls.node : nullptr;
  if (node == nullptr) node = p.impl_->root;
  if (node == nullptr) return;
  node->counters[static_cast<size_t>(c)].fetch_add(delta,
                                                   std::memory_order_relaxed);
}

ProfNode* Profiler::FindOrCreateChild(ProfNode* parent, const char* category,
                                      std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (ProfNode* child : parent->children) {
    if (child->name == name) return child;
  }
  impl_->arena.emplace_back();
  ProfNode* child = &impl_->arena.back();
  child->name = std::string(name);
  child->category = category;
  child->parent = parent;
  parent->children.push_back(child);
  return child;
}

ProfNode* Profiler::EnterSpan(const char* category, std::string_view name,
                              ProfHandle* prev) {
  uint64_t epoch = impl_->epoch.load(std::memory_order_relaxed);
  ProfNode* parent = (tls.epoch == epoch) ? tls.node : nullptr;
  if (parent == nullptr) parent = impl_->root;
  if (parent == nullptr) return nullptr;
  ProfNode* node = FindOrCreateChild(parent, category, name);
  *prev = {tls.node, tls.epoch};
  tls = {node, epoch};
  return node;
}

void Profiler::ExitSpan(ProfNode* node, int64_t wall_ns,
                        const ProfHandle& prev) {
  node->calls.fetch_add(1, std::memory_order_relaxed);
  node->wall_ns.fetch_add(wall_ns, std::memory_order_relaxed);
  tls = {prev.node, prev.epoch};
}

ProfSpan::ProfSpan(const char* category, std::string_view name) {
  if (!Profiler::enabled()) return;
  node_ = Profiler::Global().EnterSpan(category, name, &prev_);
  start_ns_ = SteadyNowNs();
}

ProfSpan::~ProfSpan() {
  if (node_ == nullptr) return;
  Profiler::Global().ExitSpan(node_, SteadyNowNs() - start_ns_, prev_);
}

ProfAdopt::ProfAdopt(const ProfHandle& handle) {
  if (handle.node == nullptr || !Profiler::enabled()) return;
  Profiler& p = Profiler::Global();
  if (handle.epoch != p.impl_->epoch.load(std::memory_order_relaxed)) return;
  adopted_ = true;
  prev_ = {tls.node, tls.epoch};
  tls = {handle.node, handle.epoch};
}

ProfAdopt::~ProfAdopt() {
  if (adopted_) tls = {prev_.node, prev_.epoch};
}

int64_t ProfSample::InclusiveCounter(ProfCounter c) const {
  int64_t total = counters[static_cast<size_t>(c)];
  for (const ProfSample& child : children) {
    total += child.InclusiveCounter(c);
  }
  return total;
}

int64_t ProfSample::InclusiveWallNs() const {
  int64_t child_sum = 0;
  for (const ProfSample& child : children) {
    child_sum += child.InclusiveWallNs();
  }
  return std::max(wall_ns, child_sum);
}

int64_t ProfSample::SelfWallNs() const {
  int64_t child_sum = 0;
  for (const ProfSample& child : children) {
    child_sum += child.InclusiveWallNs();
  }
  return std::max<int64_t>(0, InclusiveWallNs() - child_sum);
}

namespace {

ProfSample SnapshotNode(const ProfNode& node) {
  ProfSample s;
  s.name = node.name;
  s.category = node.category;
  s.calls = node.calls.load(std::memory_order_relaxed);
  s.wall_ns = node.wall_ns.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumProfCounters; ++i) {
    s.counters[static_cast<size_t>(i)] =
        node.counters[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  for (const ProfNode* child : node.children) {
    s.children.push_back(SnapshotNode(*child));
  }
  return s;
}

void AppendTextNode(const ProfSample& node, int depth, std::ostringstream& out) {
  std::string label(static_cast<size_t>(2 * depth), ' ');
  label += node.name;
  out << label;
  for (size_t pad = label.size(); pad < 40; ++pad) out << ' ';
  out << " " << FormatNs(node.InclusiveWallNs());
  if (node.calls > 1) out << "  calls=" << node.calls;
  for (int i = 0; i < kNumProfCounters; ++i) {
    ProfCounter c = static_cast<ProfCounter>(i);
    int64_t v = node.InclusiveCounter(c);
    if (v != 0) out << "  " << ToShortString(c) << "=" << v;
  }
  out << "\n";
  for (const ProfSample& child : node.children) {
    AppendTextNode(child, depth + 1, out);
  }
}

std::string CollapsedFrame(const std::string& name) {
  std::string frame = name;
  for (char& c : frame) {
    if (c == ';' || c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  if (frame.empty()) frame = "_";
  return frame;
}

void AppendCollapsedNode(const ProfSample& node, const std::string& prefix,
                         std::ostringstream& out) {
  std::string stack =
      prefix.empty() ? CollapsedFrame(node.name)
                     : prefix + ";" + CollapsedFrame(node.name);
  int64_t self = node.SelfWallNs();
  if (self > 0) out << stack << " " << self << "\n";
  for (const ProfSample& child : node.children) {
    AppendCollapsedNode(child, stack, out);
  }
}

}  // namespace

std::string QueryProfile::ToText() const {
  std::ostringstream out;
  AppendTextNode(root, 0, out);
  return out.str();
}

std::string QueryProfile::ToCollapsed() const {
  std::ostringstream out;
  AppendCollapsedNode(root, "", out);
  return out.str();
}

QueryProfile CaptureProfile() {
  Profiler& p = Profiler::Global();
  Profiler::Impl* impl = p.impl_;
  std::lock_guard<std::mutex> lock(impl->mu);
  QueryProfile profile;
  if (impl->root != nullptr) profile.root = SnapshotNode(*impl->root);
  return profile;
}

void ObserveQueryProfile(const QueryProfile& profile) {
  auto& reg = MetricsRegistry::Global();
  static Histogram& wall = reg.GetHistogram("profile.query_wall_ns");
  static Histogram& scans = reg.GetHistogram("profile.query_bitmap_scans");
  wall.Observe(profile.root.InclusiveWallNs());
  scans.Observe(profile.root.InclusiveCounter(ProfCounter::kBitmapScans));
}

}  // namespace bix::obs
