// Fixed inputs for the outlier detectors, shared by the score-bit
// fingerprints (test_fingerprints) and the degenerate-shape checks
// (test_outlier_details):
//   * checkpoint snapshots — every task's row at a few checkpoints of the
//     first generated Google and Alibaba jobs, the matrices the registry's
//     detectors fit on;
//   * a tie-heavy matrix — every row repeated three times (tied distances)
//     and one constant column;
//   * degenerate shapes — n = 3, n = 20 (LSCP's local region and the
//     largest neighbour count clamp to n − 1), all rows identical (LOF's
//     infinite-lrd path), a constant column (a singular covariance, held
//     off by MCD's ridge), and near-duplicate rows (SOS's bandwidth search
//     runs out of steps).
// Each shape carries XGBOD labels: running(1)/finished(0) for snapshots, an
// alternating pattern otherwise.
#pragma once

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "trace/checkpoint_view.h"
#include "trace/generator.h"

namespace nurd::outlier::shapes {

struct Shape {
  std::string name;
  Matrix x;
  std::vector<double> labels;  ///< XGBOD's {0,1} labels, one per row
};

inline std::vector<double> alternating_labels(std::size_t n) {
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = static_cast<double>(i % 2);
  return y;
}

inline Shape snapshot_shape(std::string name, const trace::Job& job,
                            std::size_t t) {
  const trace::CheckpointView view(job.trace, t);
  Shape s{std::move(name), Matrix{}, std::vector<double>(job.task_count())};
  view.snapshot(&s.x);
  for (auto i : view.running()) s.labels[i] = 1.0;
  return s;
}

inline std::vector<Shape> checkpoint_snapshots() {
  const auto google = trace::GoogleLikeGenerator(
                          trace::GoogleLikeGenerator::google_defaults())
                          .generate(1);
  const auto alibaba = trace::AlibabaLikeGenerator(
                           trace::AlibabaLikeGenerator::alibaba_defaults())
                           .generate(1);
  std::vector<Shape> out;
  for (const auto& [name, job] :
       {std::pair{"google", &google[0]}, std::pair{"alibaba", &alibaba[0]}}) {
    const std::size_t last = job->checkpoint_count() - 1;
    for (const std::size_t t : {std::size_t{1}, last / 2}) {
      out.push_back(snapshot_shape(
          std::string(name) + "_ckpt" + std::to_string(t), *job, t));
    }
  }
  return out;
}

inline Shape tie_heavy() {
  Rng rng(301);
  Matrix x(60, 3);
  for (std::size_t i = 0; i < 60; i += 3) {
    const double a = std::round(rng.normal() * 2.0);
    const double b = rng.normal();
    for (std::size_t r = i; r < i + 3; ++r) {
      x(r, 0) = a;
      x(r, 1) = b;
      x(r, 2) = 7.0;
    }
  }
  return {"tie_heavy", std::move(x), alternating_labels(60)};
}

inline Shape gaussian(std::string name, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.normal();
  }
  return {std::move(name), std::move(x), alternating_labels(n)};
}

inline std::vector<Shape> degenerate_shapes() {
  std::vector<Shape> out;
  out.push_back(gaussian("n3", 3, 302));
  out.push_back(gaussian("n20", 20, 303));
  out.push_back({"identical_rows", Matrix(25, 3, 1.5), alternating_labels(25)});
  Shape constant = gaussian("constant_column", 50, 304);
  for (std::size_t i = 0; i < constant.x.rows(); ++i) constant.x(i, 1) = -2.0;
  out.push_back(std::move(constant));
  // Six identical rows and one 1e-9 away: the duplicates' perplexity search
  // never converges (five tied neighbours keep the entropy above target),
  // and the near row's affinity still moves with the bandwidth.
  Shape near = gaussian("near_duplicates", 20, 305);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 3; ++j) near.x(i, j) = 0.0;
  }
  near.x(6, 0) = 1e-9;
  out.push_back(std::move(near));
  return out;
}

}  // namespace nurd::outlier::shapes
