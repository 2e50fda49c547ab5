#include "outlier/knn_detectors.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace nurd::outlier {

// The neighbourhood detectors standardize features: they are distance/angle
// based and the trace features have wildly different native scales.
Matrix standardized(const Matrix& x) {
  StandardScaler scaler;
  return scaler.fit_transform(x);
}

std::size_t clamp_k(std::size_t k, std::size_t n) {
  // Need at least one neighbour and at most n-1.
  return std::max<std::size_t>(1, std::min(k, n > 1 ? n - 1 : 1));
}

std::vector<double> knn_scores(const NeighborLists& nbrs, std::size_t k) {
  std::vector<double> scores(nbrs.size());
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    scores[i] = nbrs[i][k - 1].distance;  // k-th neighbour distance
  }
  return scores;
}

std::vector<double> lof_scores(const NeighborLists& nbrs, std::size_t k) {
  const std::size_t n = nbrs.size();
  std::vector<double> k_dist(n);
  for (std::size_t i = 0; i < n; ++i) k_dist[i] = nbrs[i][k - 1].distance;

  // Local reachability density: inverse mean reachability distance.
  std::vector<double> lrd(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum_reach = 0.0;
    for (std::size_t r = 0; r < k; ++r) {
      sum_reach += std::max(k_dist[nbrs[i][r].index], nbrs[i][r].distance);
    }
    lrd[i] = sum_reach > 0.0 ? static_cast<double>(k) / sum_reach
                             : std::numeric_limits<double>::infinity();
  }

  std::vector<double> scores(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    // A non-finite lrd is a duplicate-dense point: inlier by construction.
    if (!std::isfinite(lrd[i])) continue;
    double sum_ratio = 0.0;
    for (std::size_t r = 0; r < k; ++r) {
      const double l = lrd[nbrs[i][r].index];
      sum_ratio += std::isfinite(l) ? l / lrd[i] : 1.0;
    }
    scores[i] = sum_ratio / static_cast<double>(k);
  }
  return scores;
}

void KnnDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 2, "KNN needs at least two points");
  const std::size_t k = clamp_k(k_, x.rows());
  scores_ = knn_scores(KnnIndex(standardized(x)).all_neighbors(k), k);
}

void LofDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 2, "LOF needs at least two points");
  const std::size_t k = clamp_k(k_, x.rows());
  scores_ = lof_scores(KnnIndex(standardized(x)).all_neighbors(k), k);
}

void CofDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 2, "COF needs at least two points");
  const Matrix xs = standardized(x);
  const std::size_t n = xs.rows();
  const std::size_t k = clamp_k(k_, n);
  const auto nbrs = KnnIndex(xs).all_neighbors(k);

  // Average chaining distance of each point over its set-based nearest path
  // through its k-neighbourhood (Tang et al. 2002, eq. 5): the i-th edge of
  // the SBN path gets weight 2(k+1−i)/(k(k+1)).
  std::vector<double> ac_dist(n, 0.0);
  for (std::size_t p = 0; p < n; ++p) {
    // Greedy SBN trail: start at p, repeatedly connect the unvisited
    // neighbour closest to ANY visited vertex.
    std::vector<std::size_t> visited{p};
    std::vector<std::size_t> remaining;
    for (const auto& nb : nbrs[p]) remaining.push_back(nb.index);
    double acc = 0.0;
    const auto kk = static_cast<double>(remaining.size());
    std::size_t edge = 1;
    while (!remaining.empty()) {
      double best = std::numeric_limits<double>::max();
      std::size_t best_j = 0;
      for (std::size_t j = 0; j < remaining.size(); ++j) {
        double dmin = std::numeric_limits<double>::max();
        for (std::size_t v : visited) {
          dmin = std::min(dmin,
                          euclidean_distance(xs.row(remaining[j]), xs.row(v)));
        }
        if (dmin < best) {
          best = dmin;
          best_j = j;
        }
      }
      const double weight =
          2.0 * (kk + 1.0 - static_cast<double>(edge)) / (kk * (kk + 1.0));
      acc += weight * best;
      visited.push_back(remaining[best_j]);
      remaining.erase(remaining.begin() +
                      static_cast<std::ptrdiff_t>(best_j));
      ++edge;
    }
    ac_dist[p] = acc;
  }

  scores_.assign(n, 1.0);
  for (std::size_t p = 0; p < n; ++p) {
    double nbr_sum = 0.0;
    for (const auto& nb : nbrs[p]) nbr_sum += ac_dist[nb.index];
    if (nbr_sum <= 0.0) {
      scores_[p] = 1.0;
      continue;
    }
    scores_[p] = ac_dist[p] * static_cast<double>(nbrs[p].size()) / nbr_sum;
  }
}

void AbodDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 3, "ABOD needs at least three points");
  const Matrix xs = standardized(x);
  const std::size_t n = xs.rows();
  const std::size_t k = std::max<std::size_t>(2, clamp_k(k_, n));
  KnnIndex index(xs);
  const std::size_t d = xs.cols();

  scores_.assign(n, 0.0);
  std::vector<double> va(d), vb(d);
  for (std::size_t p = 0; p < n; ++p) {
    const auto nb = index.neighbors_of(p, k);
    auto xp = xs.row(p);
    // Distance-weighted angle statistic over all neighbour pairs.
    double sum = 0.0, sum_sq = 0.0;
    std::size_t count = 0;
    for (std::size_t a = 0; a < nb.size(); ++a) {
      for (std::size_t b = a + 1; b < nb.size(); ++b) {
        auto xa = xs.row(nb[a].index);
        auto xb = xs.row(nb[b].index);
        double na2 = 0.0, nb2 = 0.0, ab = 0.0;
        for (std::size_t j = 0; j < d; ++j) {
          va[j] = xa[j] - xp[j];
          vb[j] = xb[j] - xp[j];
          na2 += va[j] * va[j];
          nb2 += vb[j] * vb[j];
          ab += va[j] * vb[j];
        }
        if (na2 <= 1e-24 || nb2 <= 1e-24) continue;
        const double val = ab / (na2 * nb2);  // angle weighted by 1/(|a||b|)²
        sum += val;
        sum_sq += val * val;
        ++count;
      }
    }
    if (count < 2) {
      scores_[p] = 0.0;
      continue;
    }
    const double m = sum / static_cast<double>(count);
    const double var = sum_sq / static_cast<double>(count) - m * m;
    scores_[p] = -var;  // low angle variance ⇒ outlier ⇒ high score
  }
}

}  // namespace nurd::outlier
