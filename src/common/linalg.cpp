#include "common/linalg.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "kernel/kernel.h"

namespace nurd {

std::optional<Matrix> cholesky(const Matrix& a) {
  NURD_CHECK(a.rows() == a.cols(), "cholesky requires a square matrix");
  const std::size_t n = a.rows();
  const auto& kops = kernel::ops();
  Matrix l(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      // s = a(i,j) − Σ_k<j l(i,k)·l(j,k): contiguous row prefixes, one
      // kernel dot_sub (reference: the seed's sequential deductions).
      double s = kops.dot_sub(a(i, j), l.row(i).data(), l.row(j).data(), j);
      if (i == j) {
        if (s <= 0.0) return std::nullopt;
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  return l;
}

std::vector<double> cholesky_solve(const Matrix& l,
                                   std::span<const double> b) {
  const std::size_t n = l.rows();
  NURD_CHECK(b.size() == n, "rhs size mismatch");
  // Forward substitution: L·y = b.
  const auto& kops = kernel::ops();
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double s = kops.dot_sub(b[i], l.row(i).data(), y.data(), i);
    y[i] = s / l(i, i);
  }
  // Back substitution: Lᵀ·x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

std::optional<Matrix> spd_inverse(const Matrix& a) {
  auto l = cholesky(a);
  if (!l) return std::nullopt;
  const std::size_t n = a.rows();
  Matrix inv(n, n, 0.0);
  std::vector<double> e(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    e[c] = 1.0;
    auto x = cholesky_solve(*l, e);
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = x[r];
    e[c] = 0.0;
  }
  return inv;
}

double cholesky_logdet(const Matrix& l) {
  double s = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) s += std::log(l(i, i));
  return 2.0 * s;
}

EigenResult jacobi_eigen(const Matrix& a, int max_sweeps) {
  NURD_CHECK(a.rows() == a.cols(), "eigen requires a square matrix");
  const std::size_t n = a.rows();
  Matrix d = a;             // working copy, converges to diagonal
  Matrix v(n, n, 0.0);      // accumulated rotations (columns = eigenvectors)
  for (std::size_t i = 0; i < n; ++i) v(i, i) = 1.0;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += d(p, q) * d(p, q);
    if (off < 1e-24) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        if (std::abs(d(p, q)) < 1e-30) continue;
        const double theta = (d(q, q) - d(p, p)) / (2.0 * d(p, q));
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Apply the rotation G(p,q,θ) on both sides of D and accumulate in V.
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p), dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k), dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a_, std::size_t b_) {
    return d(a_, a_) > d(b_, b_);
  });

  EigenResult out;
  out.values.resize(n);
  out.vectors = Matrix(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    out.values[i] = d(order[i], order[i]);
    for (std::size_t k = 0; k < n; ++k) out.vectors(i, k) = v(k, order[i]);
  }
  return out;
}

Matrix covariance(const Matrix& x) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  Matrix cov(d, d, 0.0);
  if (n < 2) return cov;
  const auto mu = x.col_means();
  const auto& kops = kernel::ops();
  // Center each row into scratch, then one rank-1 syrk-lite update of the
  // upper triangle — per-entry accumulation order matches the seed's.
  std::vector<double> centered(d);
  double* cov_data = cov.row(0).data();
  for (std::size_t r = 0; r < n; ++r) {
    auto v = x.row(r);
    kops.vsub(centered.data(), v.data(), mu.data(), d);
    kops.syrk_rank1_upper(cov_data, d, centered.data(), d, 1.0);
  }
  const double denom = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = i; j < d; ++j) {
      cov(i, j) /= denom;
      cov(j, i) = cov(i, j);
    }
  return cov;
}

double mahalanobis_squared(std::span<const double> v,
                           std::span<const double> mean,
                           const Matrix& precision,
                           std::span<double> scratch) {
  const std::size_t d = v.size();
  NURD_CHECK(mean.size() == d && precision.rows() == d &&
                 precision.cols() == d && scratch.size() == 2 * d,
             "mahalanobis dimension mismatch");
  const auto& kops = kernel::ops();
  double* diff = scratch.data();
  double* p_diff = diff + d;  // row i: P.row(i) · diff, summed from 0.0
  kops.vsub(diff, v.data(), mean.data(), d);
  kops.gemv(precision.row(0).data(), d, d, diff, 0.0, p_diff);
  double s = 0.0;
  for (std::size_t i = 0; i < d; ++i) s += diff[i] * p_diff[i];
  return s;
}

}  // namespace nurd
