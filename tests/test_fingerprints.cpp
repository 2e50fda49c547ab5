// Absolute behaviour fingerprints: for the boosted-tree methods (GBTR,
// XGBOD, PU-EN, Grabit, NURD-NC, NURD) on both tuned configs under both
// refit policies, a hash of every job's per-task flag checkpoint plus the
// bits of the macro-F1 are compared against tests/golden/fingerprints.json.
// Golden parity elsewhere is relative (one path against another); this test
// catches a change that moves every path the same way.
//
// The kernel primitives are bit-exact scalar code, so the fingerprints do
// not depend on the host CPU. Regenerate the golden file with
//
//   NURD_REGEN_FINGERPRINTS=1 ./build/test_fingerprints
//
// and list every regeneration, with its metric deltas, in CHANGES.md.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "eval/harness.h"
#include "trace/generator.h"

namespace nurd {
namespace {

#ifndef NURD_SOURCE_DIR
#error "NURD_SOURCE_DIR must point at the repo root (set by CMakeLists.txt)"
#endif

constexpr std::size_t kJobsPerDataset = 6;
constexpr std::size_t kThreads = 4;

const char* const kMethods[] = {"GBTR",   "XGBOD",   "PU-EN",
                                "Grabit", "NURD-NC", "NURD"};

struct Fingerprint {
  std::string flag_hash;  ///< FNV-1a 64 of every job's flagged_at, hex
  std::string f1_bits;    ///< the macro-F1's IEEE-754 bits, hex
  double f1 = 0.0;        ///< informational only; the bits are compared
};

std::string golden_path() {
  return std::string(NURD_SOURCE_DIR) + "/tests/golden/fingerprints.json";
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

Fingerprint fingerprint(const core::NamedPredictor& method,
                        const std::vector<trace::Job>& jobs) {
  const auto runs = eval::run_method(method, jobs, 90.0, kThreads);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& run : runs) {
    h = fnv1a(h, run.flagged_at.size());
    for (const auto at : run.flagged_at) h = fnv1a(h, at);
  }
  const double f1 = eval::aggregate_method(method.name, runs).f1;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &f1, sizeof(bits));
  return {hex64(h), hex64(bits), f1};
}

std::map<std::string, Fingerprint> compute_all() {
  auto google = trace::GoogleLikeGenerator::google_defaults();
  auto alibaba = trace::AlibabaLikeGenerator::alibaba_defaults();
  const std::vector<std::pair<std::string, std::vector<trace::Job>>>
      datasets = {
          {"google_tuned",
           trace::GoogleLikeGenerator(google).generate(kJobsPerDataset)},
          {"alibaba_tuned",
           trace::AlibabaLikeGenerator(alibaba).generate(kJobsPerDataset)},
      };
  std::map<std::string, Fingerprint> out;
  for (const auto& [config_name, jobs] : datasets) {
    for (const auto policy :
         {core::RefitPolicy::kFull, core::RefitPolicy::kIncremental}) {
      auto config = config_name == "google_tuned" ? core::google_tuned()
                                                  : core::alibaba_tuned();
      config.refit = policy;
      const std::string policy_name =
          policy == core::RefitPolicy::kFull ? "kFull" : "kIncremental";
      for (const char* name : kMethods) {
        const auto method = core::predictor_by_name(name, config);
        out[config_name + "/" + name + "/" + policy_name] =
            fingerprint(method, jobs);
      }
    }
  }
  return out;
}

// The value of `"field": "..."` on `line`, or "" when absent.
std::string quoted_field(const std::string& line, const std::string& field) {
  const auto at = line.find("\"" + field + "\"");
  if (at == std::string::npos) return {};
  const auto open = line.find('"', line.find(':', at) + 1);
  const auto close = line.find('"', open + 1);
  return line.substr(open + 1, close - open - 1);
}

// One entry per line: "<key>": {"flag_hash": "...", "f1_bits": "...", ...}.
std::map<std::string, Fingerprint> read_golden(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::map<std::string, Fingerprint> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"flag_hash\"") == std::string::npos) continue;
    const auto open = line.find('"');
    const auto close = line.find('"', open + 1);
    out[line.substr(open + 1, close - open - 1)] = {
        quoted_field(line, "flag_hash"), quoted_field(line, "f1_bits"), 0.0};
  }
  return out;
}

void write_golden(const std::string& path,
                  const std::map<std::string, Fingerprint>& entries) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << "{\n  \"backend\": \"reference\",\n  \"jobs_per_dataset\": "
      << kJobsPerDataset << ",\n  \"entries\": {\n";
  std::size_t i = 0;
  for (const auto& [key, fp] : entries) {
    char f1[32];
    std::snprintf(f1, sizeof(f1), "%.17g", fp.f1);
    out << "    \"" << key << "\": {\"flag_hash\": \"" << fp.flag_hash
        << "\", \"f1_bits\": \"" << fp.f1_bits << "\", \"f1\": " << f1 << "}"
        << (++i < entries.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
}

TEST(Fingerprints, MatchGolden) {
  // Read before compute_all starts the pool's worker threads.
  const char* regen =
      std::getenv("NURD_REGEN_FINGERPRINTS");  // NOLINT(concurrency-mt-unsafe)
  const auto actual = compute_all();
  ASSERT_EQ(actual.size(), 2u * 2u * std::size(kMethods));

  if (regen != nullptr && std::string(regen) == "1") {
    write_golden(golden_path(), actual);
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  const auto golden = read_golden(golden_path());
  EXPECT_EQ(golden.size(), actual.size());
  for (const auto& [key, fp] : actual) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
    EXPECT_EQ(it->second.flag_hash, fp.flag_hash) << key << " flag sets moved";
    EXPECT_EQ(it->second.f1_bits, fp.f1_bits)
        << key << " macro-F1 moved (now " << fp.f1 << ")";
  }
}

}  // namespace
}  // namespace nurd
