#include "outlier/density_detectors.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/histogram.h"
#include "common/scaler.h"
#include "kernel/kernel.h"

namespace nurd::outlier {

void HbosDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 1, "HBOS needs data");
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  scores_.assign(n, 0.0);
  for (std::size_t f = 0; f < d; ++f) {
    const auto col = x.col_view(f);
    const Histogram hist(x, f, bins_);
    for (std::size_t i = 0; i < n; ++i) {
      scores_[i] += -std::log(hist.density(col[i]));
    }
  }
}

void SosDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 3, "SOS needs at least three points");
  StandardScaler scaler;
  const Matrix xs = scaler.fit_transform(x);
  const std::size_t n = xs.rows();

  // Per-point bandwidth beta_i (=1/2σ²) via binary search so that the
  // affinity distribution has the requested perplexity. One row at a time:
  // row i's distances, then its binding probabilities b_ij, each folded into
  // log_p[j] as the row finishes, so every log_p[j] adds its terms in
  // ascending i.
  const double target_entropy = std::log2(std::min(
      perplexity_, static_cast<double>(n - 1)));
  std::vector<double> neg_sq(n), aff(n, 0.0), log_p(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    kernel::ops().squared_l2_rows(xs.flat().data(), n, xs.cols(),
                                  xs.row(i).data(), neg_sq.data());
    for (auto& v : neg_sq) {
      const double dist = std::sqrt(v);
      v = -dist * dist;
    }
    double beta = 1.0, beta_lo = 0.0, beta_hi = 1e12, sum = 0.0;
    bool converged = false;
    const auto affinities = [&] {
      sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        aff[j] = std::exp(neg_sq[j] * beta);
        sum += aff[j];
      }
    };
    for (int iter = 0; iter < 64; ++iter) {
      affinities();
      if (sum <= 0.0) {
        beta_hi = beta;
        beta = 0.5 * (beta_lo + beta_hi);
        continue;
      }
      double entropy = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const double p = aff[j] / sum;
        if (p > 1e-12) entropy -= p * std::log2(p);
      }
      converged = std::abs(entropy - target_entropy) < 1e-5;
      if (converged) break;
      if (entropy > target_entropy) {
        beta_lo = beta;
        beta = beta_hi >= 1e12 ? beta * 2.0 : 0.5 * (beta_lo + beta_hi);
      } else {
        beta_hi = beta;
        beta = 0.5 * (beta_lo + beta_hi);
      }
    }
    // A converged search left aff and sum at the final beta already.
    if (!converged) affinities();
    // Outlier probability of j: product over rows i ≠ j of (1 − b_ij).
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double b = sum <= 0.0 ? 0.0 : aff[j] / sum;
      log_p[j] += std::log(std::clamp(1.0 - b, 1e-12, 1.0));
    }
  }
  scores_.resize(n);
  for (std::size_t j = 0; j < n; ++j) scores_[j] = std::exp(log_p[j]);
}

}  // namespace nurd::outlier
