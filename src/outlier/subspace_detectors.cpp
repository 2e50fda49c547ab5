#include "outlier/subspace_detectors.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"
#include "common/knn.h"
#include "common/scaler.h"

namespace nurd::outlier {

void SodDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 3, "SOD needs at least three points");
  StandardScaler scaler;
  const Matrix xs = scaler.fit_transform(x);
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();
  const std::size_t k = std::min(params_.knn, n - 1);
  const std::size_t l = std::min(params_.ref_set, k);
  const auto nbrs = KnnIndex(xs).all_neighbors(k);

  // Reverse kNN lists: holders[m] = the rows whose kNN list holds m.
  std::vector<std::vector<std::size_t>> holders(n);
  for (std::size_t q = 0; q < n; ++q) {
    for (const auto& nb : nbrs[q]) holders[nb.index].push_back(q);
  }

  scores_.assign(n, 0.0);
  std::vector<std::size_t> snn(n), cand(n - 1);
  for (std::size_t p = 0; p < n; ++p) {
    // SNN similarity of p to every other point: |kNN(p) ∩ kNN(q)|.
    std::fill(snn.begin(), snn.end(), std::size_t{0});
    for (const auto& nb : nbrs[p]) {
      for (auto q : holders[nb.index]) ++snn[q];
    }
    // Reference set: the l points with highest SNN similarity, ties by
    // ascending index.
    for (std::size_t q = 0, c = 0; q < n; ++q) {
      if (q != p) cand[c++] = q;
    }
    std::partial_sort(
        cand.begin(), cand.begin() + static_cast<std::ptrdiff_t>(l),
        cand.end(), [&](std::size_t a, std::size_t b) {
          return snn[a] > snn[b] || (snn[a] == snn[b] && a < b);
        });
    const auto ref = std::span(cand).first(l);

    // Per-dimension mean and variance of the reference set.
    std::vector<double> mu(d, 0.0), var(d, 0.0);
    for (auto q : ref) {
      auto row = xs.row(q);
      for (std::size_t j = 0; j < d; ++j) mu[j] += row[j];
    }
    for (auto& m : mu) m /= static_cast<double>(ref.size());
    double total_var = 0.0;
    for (auto q : ref) {
      auto row = xs.row(q);
      for (std::size_t j = 0; j < d; ++j) {
        const double diff = row[j] - mu[j];
        var[j] += diff * diff;
      }
    }
    for (auto& v : var) {
      v /= static_cast<double>(ref.size());
      total_var += v;
    }

    // Relevant subspace: dimensions with variance below α·(mean variance).
    const double threshold =
        params_.alpha * total_var / static_cast<double>(d);
    double dist2 = 0.0;
    std::size_t dims = 0;
    auto row_p = xs.row(p);
    for (std::size_t j = 0; j < d; ++j) {
      if (var[j] < threshold) {
        const double diff = row_p[j] - mu[j];
        dist2 += diff * diff;
        ++dims;
      }
    }
    scores_[p] = dims == 0 ? 0.0
                           : std::sqrt(dist2 / static_cast<double>(dims));
  }
}

}  // namespace nurd::outlier
