#include "outlier/statistical_detectors.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/linalg.h"
#include "common/rng.h"
#include "common/scaler.h"

namespace nurd::outlier {

namespace {

// Mean and covariance of a row subset, with a small ridge so Cholesky
// succeeds on near-degenerate subsets.
struct MeanCov {
  std::vector<double> mean;
  Matrix cov;
};

MeanCov subset_mean_cov(const Matrix& x, std::span<const std::size_t> rows) {
  const Matrix sub = x.select_rows(rows);
  MeanCov mc;
  mc.mean = sub.col_means();
  mc.cov = covariance(sub);
  for (std::size_t i = 0; i < mc.cov.rows(); ++i) mc.cov(i, i) += 1e-8;
  return mc;
}

// (squared distance, row) of every row of x under mc, in row order; pairs
// compare as a stable argsort of the distances would order them.
using Keyed = std::vector<std::pair<double, std::size_t>>;
void all_mahalanobis(const Matrix& x, const MeanCov& mc, Keyed* d2) {
  auto precision = spd_inverse(mc.cov);
  std::vector<double> scratch(2 * x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    // Degenerate covariance: fall back to Euclidean distance from the mean.
    (*d2)[i] = {precision ? mahalanobis_squared(x.row(i), mc.mean, *precision,
                                                scratch)
                          : squared_distance(x.row(i), mc.mean),
                i};
  }
}

double cov_logdet(const Matrix& cov) {
  auto l = cholesky(cov);
  if (!l) return std::numeric_limits<double>::max();
  return cholesky_logdet(*l);
}

}  // namespace

void McdDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 2, "MCD needs at least two points");
  StandardScaler scaler;
  const Matrix xs = scaler.fit_transform(x);
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();

  const auto h_min = (n + d + 1) / 2;
  const auto h = std::clamp<std::size_t>(
      static_cast<std::size_t>(params_.support_fraction *
                               static_cast<double>(n)),
      std::min(h_min, n), n);

  Rng rng(params_.seed);
  double best_logdet = std::numeric_limits<double>::max();
  MeanCov best;
  Keyed d2(n);
  const auto h_end = d2.begin() + static_cast<std::ptrdiff_t>(h);
  const auto same_row = [](const auto& p, std::size_t r) {
    return p.second == r;
  };

  for (int trial = 0; trial < params_.n_initial_subsets; ++trial) {
    // Seed with a random (d+1)-subset, then concentrate.
    auto rows = rng.sample_without_replacement(
        n, std::min<std::size_t>(d + 1, n));
    MeanCov mc = subset_mean_cov(xs, rows);
    for (int step = 0; step < params_.c_steps; ++step) {
      // The h closest rows in order, without sorting the other n − h.
      all_mahalanobis(xs, mc, &d2);
      std::nth_element(d2.begin(), h_end, d2.end());
      std::sort(d2.begin(), h_end);
      // Same subset in the same order: a fixed point, so every later step
      // would recompute this exact MeanCov.
      if (std::equal(d2.begin(), h_end, rows.begin(), rows.end(), same_row)) {
        break;
      }
      rows.resize(h);
      for (std::size_t r = 0; r < h; ++r) rows[r] = d2[r].second;
      mc = subset_mean_cov(xs, rows);
    }
    const double ld = cov_logdet(mc.cov);
    if (ld < best_logdet) {
      best_logdet = ld;
      best = std::move(mc);
    }
  }

  if (best.mean.empty()) {
    // All trials degenerate: fall back to the full-sample estimate.
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    best = subset_mean_cov(xs, all);
  }

  all_mahalanobis(xs, best, &d2);
  scores_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores_[i] = std::sqrt(std::max(d2[i].first, 0.0));
  }
}

void PcaDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 2, "PCA needs at least two points");
  StandardScaler scaler;
  const Matrix xs = scaler.fit_transform(x);
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();

  const Matrix cov = covariance(xs);
  const auto eig = jacobi_eigen(cov);

  double total = 0.0;
  for (double v : eig.values) total += std::max(v, 0.0);
  NURD_CHECK(total > 0.0, "PCA on zero-variance data");

  // Keep the leading components reaching the requested explained variance.
  std::size_t kept = 0;
  double acc = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    if (eig.values[j] <= 1e-10) break;
    acc += eig.values[j];
    ++kept;
    if (acc / total >= variance_kept_) break;
  }
  kept = std::max<std::size_t>(kept, 1);

  const auto mu = xs.col_means();
  scores_.assign(n, 0.0);
  std::vector<double> centered(d);
  for (std::size_t i = 0; i < n; ++i) {
    auto row = xs.row(i);
    for (std::size_t j = 0; j < d; ++j) centered[j] = row[j] - mu[j];
    double s = 0.0;
    for (std::size_t c = 0; c < kept; ++c) {
      const double proj = dot(centered, eig.vectors.row(c));
      s += proj * proj / eig.values[c];
    }
    scores_[i] = s;
  }
}

void CblofDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 2, "CBLOF needs at least two points");
  StandardScaler scaler;
  const Matrix xs = scaler.fit_transform(x);
  const std::size_t n = xs.rows();

  Rng rng(params_.seed);
  KMeansParams kp;
  kp.k = params_.n_clusters;
  const auto km = kmeans(xs, kp, rng);
  const std::size_t k = km.centroids.rows();

  // Order clusters by size (descending) and find the large/small boundary.
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return km.sizes[a] > km.sizes[b];
  });

  std::size_t boundary = k;  // first index in `order` that is a small cluster
  std::size_t cum = 0;
  for (std::size_t r = 0; r < k; ++r) {
    cum += km.sizes[order[r]];
    const bool alpha_met =
        static_cast<double>(cum) >= params_.alpha * static_cast<double>(n);
    const bool beta_met =
        r + 1 < k && km.sizes[order[r + 1]] > 0 &&
        static_cast<double>(km.sizes[order[r]]) /
                static_cast<double>(km.sizes[order[r + 1]]) >=
            params_.beta;
    if (alpha_met || beta_met) {
      boundary = r + 1;
      break;
    }
  }
  std::vector<bool> is_large(k, false);
  for (std::size_t r = 0; r < std::min(boundary, k); ++r) {
    is_large[order[r]] = true;
  }
  // Guarantee at least one large cluster.
  if (boundary == 0) is_large[order[0]] = true;

  scores_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = km.labels[i];
    if (is_large[c]) {
      scores_[i] = euclidean_distance(xs.row(i), km.centroids.row(c));
    } else {
      double best = std::numeric_limits<double>::max();
      for (std::size_t j = 0; j < k; ++j) {
        if (!is_large[j]) continue;
        best = std::min(best,
                        euclidean_distance(xs.row(i), km.centroids.row(j)));
      }
      scores_[i] = best;
    }
  }
}

}  // namespace nurd::outlier
