// The three benchmark workloads. Each makes its inputs from the seed, runs
// the program for about `seconds`, checks every output against the serial
// reference, and returns its metrics by name.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string out_dir;
};

struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Attribution: machine, build, configuration and sample counts.
  std::vector<std::pair<std::string, std::string>> meta;
};

/// Whether run_workload knows `name`.
bool is_workload(const std::string& name);

/// Runs one workload; throws std::invalid_argument on an unknown name.
RunOutcome run_workload(const RunOptions& options);

}  // namespace perfbench
