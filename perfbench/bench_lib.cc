#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <system_error>

namespace bixbench {

double NearestRank(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double SupportedPercentile(size_t samples, double target, size_t min_beyond) {
  if (samples <= 2 * min_beyond) return 0.5;
  const double n = static_cast<double>(samples);
  const double supported = (n - static_cast<double>(min_beyond)) / n;
  return std::max(0.5, std::min(target, supported));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

LatencySummary Summarize(std::vector<double> samples, double target) {
  LatencySummary out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = NearestRank(samples, 0.5);
  out.tail_percentile = SupportedPercentile(samples.size(), target);
  out.tail = NearestRank(samples, out.tail_percentile);
  return out;
}

ChunkedSummary SummarizeChunks(std::span<const double> latency,
                               std::span<const ChunkEnd> ends,
                               int64_t total_ns, double target) {
  ChunkedSummary out;
  out.samples = latency.size();
  if (latency.empty()) return out;
  const ChunkEnd whole[] = {{latency.size(), total_ns}};
  if (ends.size() < 2) ends = whole;
  std::vector<double> qps, p50, tail;
  ChunkEnd prev;
  for (const ChunkEnd& end : ends) {
    if (end.queries <= prev.queries) continue;
    const LatencySummary s = Summarize(
        std::vector<double>(latency.begin() + prev.queries,
                            latency.begin() + end.queries),
        target);
    const int64_t elapsed = end.timed_ns - prev.timed_ns;
    if (elapsed > 0) {
      qps.push_back(static_cast<double>(end.queries - prev.queries) * 1e9 /
                    static_cast<double>(elapsed));
    }
    p50.push_back(s.p50);
    tail.push_back(s.tail);
    out.tail_percentile = s.tail_percentile;
    ++out.chunks;
    prev = end;
  }
  out.qps = Median(qps);
  out.p50 = Median(p50);
  out.tail = Median(tail);
  return out;
}

void SpanRecorder::Begin(const std::string& name, const std::string& layer,
                         uint64_t query_id, int64_t now_ns) {
  Frame frame;
  frame.span.id = next_id_++;
  frame.span.parent = stack_.empty() ? 0 : stack_.back().span.id;
  frame.span.query_id = stack_.empty() ? query_id : stack_.front().span.query_id;
  frame.span.name = name;
  frame.span.layer = layer;
  frame.span.start_ns = now_ns;
  stack_.push_back(std::move(frame));
}

void SpanRecorder::End(int64_t now_ns) {
  Frame frame = std::move(stack_.back());
  stack_.pop_back();
  frame.span.end_ns = now_ns;
  const int64_t dur = frame.span.end_ns - frame.span.start_ns;
  if (stack_.empty()) {
    frame.root_name_ns[frame.span.name] += dur;
    for (const auto& [name, ns] : frame.root_name_ns) {
      per_root_[name].push_back(static_cast<double>(ns));
    }
    SpanTotals& root = root_layers_[frame.span.layer];
    root.self_ns += dur - frame.child_ns;
    root.total_ns += dur;
    ++root.count;
  }
  Finish(std::move(frame.span), frame.child_ns);
}

void SpanRecorder::AddChild(const std::string& name, const std::string& layer,
                            int64_t start_ns, int64_t end_ns) {
  Span span;
  span.id = next_id_++;
  span.parent = stack_.back().span.id;
  span.query_id = stack_.front().span.query_id;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  Finish(std::move(span), 0);
}

void SpanRecorder::Finish(Span span, int64_t child_ns) {
  const int64_t dur = span.end_ns - span.start_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    stack_.front().root_name_ns[span.name] += dur;
  }
  for (SpanTotals* totals : {&layers_[span.layer], &names_[span.name]}) {
    totals->self_ns += dur - child_ns;
    totals->total_ns += dur;
    ++totals->count;
  }
  if (spans_.size() < max_kept_) {
    spans_.push_back(std::move(span));
  } else {
    ++dropped_;
  }
}

std::vector<double> SpanRecorder::PerRootNs(const std::string& name) const {
  auto it = per_root_.find(name);
  return it == per_root_.end() ? std::vector<double>() : it->second;
}

SpanTotals SpanRecorder::RootTotals(const std::string& layer) const {
  auto it = root_layers_.find(layer);
  return it == root_layers_.end() ? SpanTotals() : it->second;
}

namespace {

void AppendTotals(std::ostringstream& os,
                  const std::map<std::string, SpanTotals>& totals) {
  os << "{";
  bool first = true;
  for (const auto& [key, t] : totals) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(key) << "\":{\"self_us\":" << t.self_ns / 1e3
       << ",\"total_us\":" << t.total_ns / 1e3 << ",\"count\":" << t.count
       << "}";
  }
  os << "}";
}

}  // namespace

std::string SpanRecorder::ToChromeTrace(const std::string& meta_json) const {
  std::ostringstream os;
  os.precision(15);
  os << "{\"traceEvents\":[";
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",\n";
    os << "{\"name\":\"" << JsonEscape(s.name) << "\",\"cat\":\""
       << JsonEscape(s.layer) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
       << "\"ts\":" << (s.start_ns - origin) / 1e3
       << ",\"dur\":" << (s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"query_id\":" << s.query_id << "}}";
  }
  os << "],\n\"displayTimeUnit\":\"ns\",\n\"dropped_spans\":" << dropped_
     << ",\n\"layer_summary\":";
  AppendTotals(os, layers_);
  os << ",\n\"name_summary\":";
  AppendTotals(os, names_);
  os << ",\n\"meta\":" << meta_json << "}\n";
  return os.str();
}

uint64_t DirectoryBytes(const std::filesystem::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t Fingerprint(const bix::Bitvector& bits) {
  // splitmix64 finalizer.
  auto mix = [](uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  // Four independent multiply-xor lanes keep the pass memory-bound; the
  // lanes and the length are folded through the finalizer at the end.
  constexpr uint64_t kMul[4] = {0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL,
                                0x165667b19e3779f9ULL, 0xd6e8feb86659fd93ULL};
  uint64_t lane[4] = {1, 2, 3, 4};
  const std::span<const uint64_t> words = bits.words();
  for (size_t i = 0; i < words.size(); ++i) {
    uint64_t& h = lane[i % 4];
    h = (h ^ words[i]) * kMul[i % 4];
    h ^= h >> 29;
  }
  uint64_t h = mix(bits.size());
  for (uint64_t l : lane) h = mix(h ^ l);
  return h;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace bixbench
