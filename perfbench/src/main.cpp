// The repository benchmark binary.
//
//   perfbench --workload <serve-small|serve-large|table3-batch> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints one JSON line of attribution metadata, then, as the last line,
// {"correct", "attempted", "failed", "metrics"} with "metrics" mapping each
// metric this run measured to its value: the end-to-end metrics with
// --trace 0, the per-layer metrics of the layers this workload runs with
// --trace 1. perfbench/run.py orders them, adds their units and checks them
// against BENCHMARK.json. Exits 1 when any operation failed its correctness
// check, 2 on a usage error or an exception (without a result line).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// A non-finite value prints as null, which run.py rejects.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (i + 1 >= argc) return usage();
    const std::string value(argv[++i]);
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) return usage();

  perfbench::RunOutcome outcome;
  try {
    outcome = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::string meta = "{\"meta\":{";
  for (std::size_t i = 0; i < outcome.meta.size(); ++i) {
    meta += (i ? "," : "") + json_string(outcome.meta[i].first) + ":" +
            json_string(outcome.meta[i].second);
  }
  std::printf("%s}}\n", meta.c_str());

  std::string metrics;
  for (const auto& [name, value] : outcome.metrics) {
    metrics += (metrics.empty() ? "" : ",") + json_string(name) + ":" +
               json_number(value);
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
