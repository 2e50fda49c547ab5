// Absolute behaviour fingerprints, compared against files under
// tests/golden/:
//
//   fingerprints.json — for all 23 registry methods on both tuned configs
//     under both refit policies: a hash of every job's per-task flag
//     checkpoint plus the IEEE-754 bits of the macro-F1, TPR and FPR.
//   detector_scores.json — for the 13 unsupervised detectors and XGBOD: a
//     hash of the bits of every score on fixed checkpoint snapshots and a
//     tie-heavy matrix, and for the neighbour and robust-covariance
//     detectors also on degenerate shapes (tests/outlier_shapes.h). Flags at
//     a contamination threshold can hide score drift; score bits cannot.
//
// Golden parity elsewhere is relative (one path against another); this test
// catches a change that moves every path the same way.
//
// The kernel primitives are bit-exact scalar code, so the fingerprints do
// not depend on the host CPU. Regenerate the golden files with
//
//   NURD_REGEN_FINGERPRINTS=1 ./build/test_fingerprints
//
// and list every regeneration, with its metric deltas, in CHANGES.md.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "eval/harness.h"
#include "outlier/density_detectors.h"
#include "outlier/ensemble_detectors.h"
#include "outlier/iforest.h"
#include "outlier/knn_detectors.h"
#include "outlier/ocsvm.h"
#include "outlier/statistical_detectors.h"
#include "outlier/subspace_detectors.h"
#include "outlier_shapes.h"
#include "trace/generator.h"

namespace nurd {
namespace {

#ifndef NURD_SOURCE_DIR
#error "NURD_SOURCE_DIR must point at the repo root (set by CMakeLists.txt)"
#endif

constexpr std::size_t kJobsPerDataset = 6;
constexpr std::size_t kThreads = 4;

/// One golden entry: field name → hex string.
using Entry = std::map<std::string, std::string>;
using Entries = std::map<std::string, Entry>;

std::string golden_path(const char* file) {
  return std::string(NURD_SOURCE_DIR) + "/tests/golden/" + file;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

Entry method_fingerprint(const core::NamedPredictor& method,
                         const std::vector<trace::Job>& jobs) {
  const auto runs = eval::run_method(method, jobs, 90.0, kThreads);
  std::uint64_t h = kFnvBasis;
  for (const auto& run : runs) {
    h = fnv1a(h, run.flagged_at.size());
    for (const auto at : run.flagged_at) h = fnv1a(h, at);
  }
  const auto result = eval::aggregate_method(method.name, runs);
  return {{"flag_hash", hex64(h)},
          {"f1_bits", hex64(bits_of(result.f1))},
          {"tpr_bits", hex64(bits_of(result.tpr))},
          {"fpr_bits", hex64(bits_of(result.fpr))}};
}

Entries compute_methods() {
  auto google = trace::GoogleLikeGenerator::google_defaults();
  auto alibaba = trace::AlibabaLikeGenerator::alibaba_defaults();
  const std::vector<std::pair<std::string, std::vector<trace::Job>>>
      datasets = {
          {"google_tuned",
           trace::GoogleLikeGenerator(google).generate(kJobsPerDataset)},
          {"alibaba_tuned",
           trace::AlibabaLikeGenerator(alibaba).generate(kJobsPerDataset)},
      };
  Entries out;
  for (const auto& [config_name, jobs] : datasets) {
    for (const auto policy :
         {core::RefitPolicy::kFull, core::RefitPolicy::kIncremental}) {
      auto config = config_name == "google_tuned" ? core::google_tuned()
                                                  : core::alibaba_tuned();
      config.refit = policy;
      const std::string policy_name =
          policy == core::RefitPolicy::kFull ? "kFull" : "kIncremental";
      for (const auto& method : core::all_predictors(config)) {
        out[config_name + "/" + method.name + "/" + policy_name] =
            method_fingerprint(method, jobs);
      }
    }
  }
  return out;
}

std::string score_hash(std::span<const double> scores) {
  std::uint64_t h = fnv1a(kFnvBasis, scores.size());
  for (const double s : scores) h = fnv1a(h, bits_of(s));
  return hex64(h);
}

using DetectorFactory = std::function<std::unique_ptr<outlier::Detector>()>;

template <typename D>
std::pair<std::string, DetectorFactory> detector() {
  return {D().name(), [] { return std::make_unique<D>(); }};
}

Entries compute_scores() {
  using namespace outlier;  // NOLINT(google-build-using-namespace)
  const std::vector<std::pair<std::string, DetectorFactory>> all = {
      detector<AbodDetector>(),  detector<CblofDetector>(),
      detector<HbosDetector>(),  detector<IForestDetector>(),
      detector<KnnDetector>(),   detector<LofDetector>(),
      detector<McdDetector>(),   detector<OcsvmDetector>(),
      detector<PcaDetector>(),   detector<SosDetector>(),
      detector<LscpDetector>(),  detector<CofDetector>(),
      detector<SodDetector>(),
  };
  // Degenerate shapes only for the detectors built on shared neighbour
  // lists, pairwise affinities or robust covariance; the others are not
  // defined on every shape (PCA rejects zero-variance data).
  const std::vector<std::string> degenerate_ok = {"KNN", "LOF", "MCD",
                                                  "SOS", "LSCP", "SOD"};

  auto shapes = shapes::checkpoint_snapshots();
  shapes.push_back(shapes::tie_heavy());
  const std::size_t regular = shapes.size();
  for (auto& s : shapes::degenerate_shapes()) shapes.push_back(std::move(s));

  Entries out;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto& shape = shapes[s];
    for (const auto& [name, make] : all) {
      if (s >= regular && std::find(degenerate_ok.begin(), degenerate_ok.end(),
                                    name) == degenerate_ok.end()) {
        continue;
      }
      auto det = make();
      det->fit(shape.x);
      out["scores/" + name + "/" + shape.name] = {
          {"score_hash", score_hash(det->scores())}};
    }
    XgbodDetector xgbod;
    xgbod.fit(shape.x, shape.labels);
    out["scores/XGBOD/" + shape.name] = {
        {"score_hash", score_hash(xgbod.scores())}};
  }
  return out;
}

// Every `"field": "value"` pair on `line` after position `from`.
Entry quoted_fields(const std::string& line, std::size_t from) {
  Entry out;
  for (auto k_open = line.find('"', from); k_open != std::string::npos;) {
    const auto k_close = line.find('"', k_open + 1);
    const auto v_open = line.find('"', k_close + 1);
    const auto v_close = line.find('"', v_open + 1);
    out[line.substr(k_open + 1, k_close - k_open - 1)] =
        line.substr(v_open + 1, v_close - v_open - 1);
    k_open = line.find('"', v_close + 1);
  }
  return out;
}

// One entry per line: "<key>": {"<field>": "<hex>", ...}.
Entries read_golden(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  Entries out;
  std::string line;
  while (std::getline(in, line)) {
    const auto brace = line.find('{');
    if (brace == std::string::npos || line.find("_hash\"") == std::string::npos)
      continue;
    const auto open = line.find('"');
    const auto close = line.find('"', open + 1);
    out[line.substr(open + 1, close - open - 1)] = quoted_fields(line, brace);
  }
  return out;
}

void write_golden(const std::string& path, const Entries& entries) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << "{\n  \"backend\": \"reference\",\n  \"entries\": {\n";
  std::size_t i = 0;
  for (const auto& [key, fields] : entries) {
    out << "    \"" << key << "\": {";
    std::size_t f = 0;
    for (const auto& [field, value] : fields) {
      out << (f++ > 0 ? ", " : "") << "\"" << field << "\": \"" << value
          << "\"";
    }
    out << "}" << (++i < entries.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
}

// Compares `actual` against the golden file, or rewrites the file when
// NURD_REGEN_FINGERPRINTS=1 (read by the caller before any worker starts).
void check_golden(const char* file, const Entries& actual, bool regen) {
  const auto path = golden_path(file);
  if (regen) {
    write_golden(path, actual);
    GTEST_SKIP() << "regenerated " << path;
  }
  const auto golden = read_golden(path);
  EXPECT_EQ(golden.size(), actual.size());
  for (const auto& [key, fields] : actual) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
    for (const auto& [field, value] : fields) {
      const auto f = it->second.find(field);
      ASSERT_NE(f, it->second.end()) << key << " has no golden " << field;
      EXPECT_EQ(f->second, value) << key << " " << field << " moved";
    }
  }
}

bool regen_requested() {
  const char* regen =
      std::getenv("NURD_REGEN_FINGERPRINTS");  // NOLINT(concurrency-mt-unsafe)
  return regen != nullptr && std::string(regen) == "1";
}

TEST(Fingerprints, MatchGolden) {
  // Read before compute_methods starts the pool's worker threads.
  const bool regen = regen_requested();
  const auto actual = compute_methods();
  ASSERT_EQ(actual.size(), 2u * 2u * core::all_predictors().size());
  check_golden("fingerprints.json", actual, regen);
}

TEST(Fingerprints, DetectorScoreBits) {
  const bool regen = regen_requested();
  const auto actual = compute_scores();
  // 14 detectors × 5 regular shapes + 7 × 5 degenerate shapes.
  ASSERT_EQ(actual.size(), 14u * 5u + 7u * 5u);
  check_golden("detector_scores.json", actual, regen);
}

}  // namespace
}  // namespace nurd
