#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

namespace {
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}
}  // namespace

void SpanRecorder::add(const Span& span) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  const auto all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"request\":%llu}}%s\n",
                 s.name, s.layer, s.thread, s.start * 1e6,
                 (s.end - s.start) * 1e6, s.id, s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, const char* layer,
                       const char* name, std::uint32_t parent,
                       std::uint64_t request)
    : recorder_(&recorder) {
  if (!recorder.enabled()) return;
  span_.id = recorder.next_id();
  span_.parent = parent;
  span_.thread = thread_index();
  span_.request = request;
  span_.layer = layer;
  span_.name = name;
  span_.start = now_s();
  open_ = true;
}

void ScopedSpan::close() {
  if (!open_) return;
  open_ = false;
  span_.end = now_s();
  recorder_->add(span_);
}

double self_time(const Span& span, std::span<const Span> children) {
  std::vector<std::pair<double, double>> covered;
  covered.reserve(children.size());
  for (const Span& c : children) {
    const double lo = std::max(c.start, span.start);
    const double hi = std::min(c.end, span.end);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double union_len = 0.0;
  double cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) union_len += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) union_len += cur_hi - cur_lo;
  return (span.end - span.start) - union_len;
}

std::map<std::string, double> self_time_by_layer(std::span<const Span> spans) {
  std::unordered_map<std::uint32_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != kNoParent) children[s.parent].push_back(s);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    const double self =
        it == children.end() ? s.end - s.start : self_time(s, it->second);
    out[s.layer] += self;
  }
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double samples_beyond(std::size_t n, double p) {
  return static_cast<double>(n) * (100.0 - p) / 100.0;
}

bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10.0;
}

}  // namespace perfbench
