// In-memory span recording, self time, and the percentile rule.
//
// A span marks one call into a layer: layer name, call name, start and end
// on the steady clock, the span that caused it, and a request id shared by
// every span of one (job, checkpoint). Spans are kept in memory and written
// once, when the benchmark ends. Nothing here runs unless the traced run
// enables the recorder.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

inline constexpr std::uint32_t kNoParent = 0;
inline constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

/// Request id of one (job, checkpoint) decision.
inline std::uint64_t request_id(std::size_t job, std::size_t checkpoint) {
  return (static_cast<std::uint64_t>(job) << 32) |
         static_cast<std::uint32_t>(checkpoint);
}

struct Span {
  std::uint32_t id = 0;      ///< unique, > 0
  std::uint32_t parent = kNoParent;
  std::uint32_t thread = 0;  ///< small per-thread index
  std::uint64_t request = kNoRequest;
  const char* layer = "";    ///< repo module: trace, core, ml, kernel, ...
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
};

/// Thread-safe span sink. Disabled recorders drop everything, so call sites
/// need no branches of their own.
class SpanRecorder {
 public:
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Reserves an id before the span ends, so children can name it.
  std::uint32_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void add(const Span& span);

  /// Snapshot of everything recorded so far.
  std::vector<Span> spans() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, microseconds).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: starts at construction, is recorded at destruction (or at
/// close()). A no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* layer, const char* name,
             std::uint32_t parent = kNoParent,
             std::uint64_t request = kNoRequest);
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return span_.id; }
  void close();

 private:
  SpanRecorder* recorder_;
  Span span_;
  bool open_ = false;
};

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (overlapping children count once; children are
/// clipped to the parent's interval).
double self_time(const Span& span, std::span<const Span> children);

/// Sum of self time per layer over every recorded span.
std::map<std::string, double> self_time_by_layer(std::span<const Span> spans);

/// Linear-interpolation percentile (p in [0, 100]) of `values`; 0 when
/// empty. Takes its argument by value because it sorts.
double percentile(std::vector<double> values, double p);

/// Samples strictly beyond percentile p in a sample of n.
double samples_beyond(std::size_t n, double p);

/// The reporting rule: a percentile is supported when at least ten samples
/// lie beyond it (p99 needs n >= 1000).
bool percentile_supported(std::size_t n, double p);

/// Median of `values` (0 when empty).
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

}  // namespace perfbench
