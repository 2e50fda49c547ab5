#include "outlier/ensemble_detectors.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/knn.h"
#include "common/stats.h"
#include "outlier/density_detectors.h"
#include "outlier/iforest.h"
#include "outlier/knn_detectors.h"

namespace nurd::outlier {

void LscpDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 3, "LSCP needs at least three points");
  NURD_CHECK(!params_.lof_ks.empty() || !params_.knn_ks.empty(),
             "LSCP needs at least one base detector");
  const std::size_t n = x.rows();

  // One neighbour query at the largest k the pool or the local region asks
  // for; every base detector and the region read prefixes of these lists.
  const std::size_t region = std::min(params_.local_region, n - 1);
  std::size_t kmax = region;
  for (std::size_t k : params_.lof_ks) kmax = std::max(kmax, clamp_k(k, n));
  for (std::size_t k : params_.knn_ks) kmax = std::max(kmax, clamp_k(k, n));
  const NeighborLists nbrs = KnnIndex(standardized(x)).all_neighbors(kmax);

  // Fit the base pool; z-score each detector's scores so they are comparable.
  std::vector<std::vector<double>> base;
  for (std::size_t k : params_.lof_ks) {
    base.push_back(zscore(lof_scores(nbrs, clamp_k(k, n))));
  }
  for (std::size_t k : params_.knn_ks) {
    base.push_back(zscore(knn_scores(nbrs, clamp_k(k, n))));
  }

  // Pseudo ground truth: per-point mean of normalized base scores.
  std::vector<double> consensus(n, 0.0);
  for (const auto& s : base) {
    for (std::size_t i = 0; i < n; ++i) consensus[i] += s[i];
  }
  for (auto& c : consensus) c /= static_cast<double>(base.size());

  scores_.assign(n, 0.0);
  std::vector<double> local_truth(region), local_scores(region);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < region; ++r) {
      local_truth[r] = consensus[nbrs[i][r].index];
    }
    // Select the detector most correlated with the consensus locally.
    double best_corr = -2.0;
    std::size_t best_d = 0;
    for (std::size_t dix = 0; dix < base.size(); ++dix) {
      for (std::size_t r = 0; r < region; ++r) {
        local_scores[r] = base[dix][nbrs[i][r].index];
      }
      const double corr = pearson(local_truth, local_scores);
      if (corr > best_corr) {
        best_corr = corr;
        best_d = dix;
      }
    }
    scores_[i] = base[best_d][i];
  }
}

XgbodDetector::XgbodDetector(XgbodParams params) : params_(params) {}

void XgbodDetector::fit(const Matrix& x, std::span<const double> y) {
  NURD_CHECK(x.rows() == y.size(), "row/label count mismatch");
  NURD_CHECK(x.rows() >= 3, "XGBOD needs at least three points");
  const std::size_t n = x.rows();

  // Transformed outlier scores from a small unsupervised pool; KNN and LOF
  // share one set of neighbour lists.
  std::vector<std::vector<double>> tos;
  const std::size_t k = clamp_k(params_.knn_k, n);
  const NeighborLists nbrs = KnnIndex(standardized(x)).all_neighbors(k);
  tos.push_back(minmax_normalize(knn_scores(nbrs, k)));
  tos.push_back(minmax_normalize(lof_scores(nbrs, k)));
  {
    HbosDetector hbos;
    hbos.fit(x);
    tos.push_back(minmax_normalize(hbos.scores()));
  }
  {
    IForestDetector iforest;
    iforest.fit(x);
    tos.push_back(minmax_normalize(iforest.scores()));
  }

  // Augmented design matrix: raw features + TOS columns.
  Matrix aug(n, x.cols() + tos.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto src = x.row(i);
    auto dst = aug.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
    for (std::size_t t = 0; t < tos.size(); ++t) {
      dst[x.cols() + t] = tos[t][i];
    }
  }

  auto clf = ml::GradientBoosting::classifier(params_.gbt);
  clf.fit(aug, y);
  scores_.resize(n);
  for (std::size_t i = 0; i < n; ++i) scores_[i] = clf.predict(aug.row(i));
}

}  // namespace nurd::outlier
