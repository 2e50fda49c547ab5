// Shared helpers for the reproduction benches: dataset construction with the
// per-dataset defaults, simple --flag=value argument parsing, and process
// resource accounting (peak RSS + global allocation counters) so benches can
// report memory behavior alongside wall-clock timings.
//
// NOTE: this header defines the replaceable global allocation functions
// (operator new/delete) to count allocations. That is well-formed because
// every bench is a single translation unit and the replacement applies
// binary-wide (the nurd library's allocations are counted too). A bench
// composed of several TUs must include bench_util.h from exactly one of
// them — violating that fails loudly at link time with a duplicate-symbol
// error.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "core/registry.h"
#include "trace/generator.h"

namespace nurd::bench {

namespace detail {
inline std::atomic<std::size_t> alloc_count{0};
inline std::atomic<std::size_t> alloc_bytes{0};
}  // namespace detail

/// Global allocation counters since process start (relaxed atomics — exact
/// under single-threaded benches, approximate ordering under the pool).
struct AllocStats {
  std::size_t count = 0;
  std::size_t bytes = 0;
};

inline AllocStats alloc_stats() {
  return {detail::alloc_count.load(std::memory_order_relaxed),
          detail::alloc_bytes.load(std::memory_order_relaxed)};
}

/// Peak resident set size of the process in bytes (0 where unsupported).
/// Linux reports ru_maxrss in KiB, macOS in bytes.
inline std::size_t peak_rss_bytes() {
#if defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::size_t>(usage.ru_maxrss);
#elif defined(__unix__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#else
  return 0;
#endif
}

/// Prints peak RSS and the allocation delta since `since` — the
/// scratch-reuse story of a bench phase: wall-clock says how fast, this says
/// how little the hot path had to touch the allocator to get there.
inline void print_resource_report(const char* label, AllocStats since = {}) {
  const auto now = alloc_stats();
  std::printf(
      "%s: peak RSS %.1f MiB, %zu allocations (%.1f MiB) in phase\n", label,
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0),
      now.count - since.count,
      static_cast<double>(now.bytes - since.bytes) / (1024.0 * 1024.0));
}

/// Which trace the bench replays.
enum class Dataset { kGoogle, kAlibaba };

inline const char* dataset_name(Dataset d) {
  return d == Dataset::kGoogle ? "Google" : "Alibaba";
}

/// Per-dataset tuned method configuration (§6 "Hyperparameter tuning").
inline core::RegistryConfig tuned_config(Dataset d) {
  return d == Dataset::kGoogle ? core::google_tuned()
                               : core::alibaba_tuned();
}

/// Generates the bench job set for a dataset with its paper-matched defaults.
inline std::vector<trace::Job> make_jobs(Dataset d, std::size_t count,
                                         std::uint64_t seed_offset = 0) {
  if (d == Dataset::kGoogle) {
    auto config = trace::GoogleLikeGenerator::google_defaults();
    config.seed += seed_offset;
    trace::GoogleLikeGenerator gen(config);
    return gen.generate(count);
  }
  auto config = trace::AlibabaLikeGenerator::alibaba_defaults();
  config.seed += seed_offset;
  trace::AlibabaLikeGenerator gen(config);
  return gen.generate(count);
}

namespace detail {
/// Every flag name an arg_* helper was asked for, for reject_unknown_args.
inline std::vector<std::string>& queried_flags() {
  static std::vector<std::string> names;
  return names;
}
}  // namespace detail

/// Reads "--name=value" from argv; returns fallback when absent. A bare
/// "--name" without "=value" is an error: the process exits 2 naming it.
inline std::string arg_string(int argc, char** argv, std::string_view name,
                              std::string fallback) {
  detail::queried_flags().emplace_back(name);
  const std::string flag = "--" + std::string(name);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == flag) {
      std::fprintf(stderr, "%s needs a value: %s=<value>\n", argv[i], argv[i]);
      std::exit(2);
    }
    if (arg.starts_with(flag + "=")) {
      return std::string(arg.substr(flag.size() + 1));
    }
  }
  return fallback;
}

/// Reads an integer flag.
inline long arg_long(int argc, char** argv, std::string_view name,
                     long fallback) {
  const auto s = arg_string(argc, argv, name, "");
  return s.empty() ? fallback : std::strtol(s.c_str(), nullptr, 10);
}

/// Call after the last arg_* read: exits 2 naming the first argument that
/// is not "--name[=value]" for a flag the bench asked for, so a misspelled
/// or removed option cannot run as if it were absent.
inline void reject_unknown_args(int argc, char** argv) {
  const auto& known = detail::queried_flags();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const auto name = arg.substr(0, arg.find('='));
    if (!name.starts_with("--") ||
        std::find(known.begin(), known.end(), name.substr(2)) == known.end()) {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
}

/// Tiny streaming JSON emitter for the benches' machine-readable outputs
/// (--json=<path>). Supports exactly what they need — nested objects and
/// arrays, string / double / integer values — with standard escaping. Usage
/// is positional: key() before each value inside an object, bare value()
/// inside an array; no validation beyond that, the benches are the schema.
class JsonWriter {
 public:
  JsonWriter& begin_object() { sep(); out_ += '{'; firsts_.push_back(true); return *this; }
  JsonWriter& end_object() { firsts_.pop_back(); out_ += '}'; return *this; }
  JsonWriter& begin_array() { sep(); out_ += '['; firsts_.push_back(true); return *this; }
  JsonWriter& end_array() { firsts_.pop_back(); out_ += ']'; return *this; }

  JsonWriter& key(std::string_view k) {
    sep();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(std::string_view v) { sep(); quote(v); return *this; }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v) {
    sep();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::size_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(bool v) { sep(); out_ += v ? "true" : "false"; return *this; }

  const std::string& str() const { return out_; }

  /// Writes the document (plus a trailing newline) to `path`; false + a
  /// stderr note on failure.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(out_.data(), 1, out_.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
  }

 private:
  // Comma bookkeeping: a value right after its key never takes a comma; any
  // other element takes one unless it is the first in its container.
  void sep() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!firsts_.empty()) {
      if (!firsts_.back()) out_ += ',';
      firsts_.back() = false;
    }
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> firsts_;
  bool after_key_ = false;
};

/// Splits a comma-separated flag value ("--methods=NURD,GBTR",
/// "--levels=1,4,16") into its tokens.
inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const auto comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace nurd::bench

// Replaceable global allocation functions (counted). Non-inline by the
// rules for replacement functions; see the header comment for why defining
// them here is safe for single-TU benches.
//
// GCC 12's -Wmismatched-new-delete can misfire here: when a make_unique in
// the same TU inlines far enough, it pairs the caller's `delete` with the
// malloc INSIDE this replacement operator new and reports a mismatch that
// cannot exist (the matching replacement operator delete frees with
// std::free). Replacement allocators are exactly the case the warning is
// not built for, so silence it for these definitions only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  nurd::bench::detail::alloc_count.fetch_add(1, std::memory_order_relaxed);
  nurd::bench::detail::alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
