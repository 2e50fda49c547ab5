#include "ml/logistic.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/linalg.h"
#include "common/stats.h"
#include "kernel/kernel.h"

namespace nurd::ml {

namespace {

/// log(1+e⁰), evaluated at run time exactly as the overflow-safe form below
/// evaluates it for z = ±0 (the volatile keeps the compiler from folding it
/// to a differently rounded constant).
double log1p_exp_zero() {
  volatile double zero = 0.0;
  return std::log1p(std::exp(-std::abs(zero)));
}

/// Penalized negative log-likelihood at θ = [w; b] (bias unpenalized), the
/// merit function of the warm path's damped Newton. log(1+eᶻ) is evaluated
/// in its overflow-safe form. The decision values z = X·θ come from
/// kernel::gemv — the same call the Newton iteration makes — and are left in
/// `z` (length xs.rows()), so an accepted trial's z stands in for the next
/// iteration's gemv.
double penalized_nll(const Matrix& xs, std::span<const double> y,
                     std::span<const double> sample_weight, double l2,
                     std::span<const double> theta, double* z) {
  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();
  kernel::ops().gemv(xs.flat().data(), n, d, theta.data(), theta[d], z);
  // At the cold start every z is zero; skip its exp/log1p per row.
  static const double log1p_one = log1p_exp_zero();
  double nll = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double log1pexp =
        z[i] == 0.0
            ? log1p_one
            : std::max(z[i], 0.0) + std::log1p(std::exp(-std::abs(z[i])));
    const double sw = sample_weight.empty() ? 1.0 : sample_weight[i];
    nll += sw * (log1pexp - y[i] * z[i]);
  }
  for (std::size_t j = 0; j < d; ++j) nll += 0.5 * l2 * theta[j] * theta[j];
  return nll;
}

}  // namespace

LogisticRegression::LogisticRegression(LogisticParams params)
    : params_(params) {
  NURD_CHECK(params_.l2 >= 0.0, "l2 must be non-negative");
}

void LogisticRegression::fit(const Matrix& x, std::span<const double> y,
                             std::span<const double> sample_weight) {
  NURD_CHECK(x.rows() == y.size(), "row/label count mismatch");
  NURD_CHECK(x.rows() > 0, "cannot fit on empty data");
  NURD_CHECK(sample_weight.empty() || sample_weight.size() == y.size(),
             "sample weight length mismatch");

  const std::size_t n = x.rows();
  const std::size_t d = x.cols();

  // Warm start: re-express the previous solution in raw-feature space BEFORE
  // the scaler is refitted, then map it into the new standardization below.
  // z = b + Σ wⱼ(xⱼ−μⱼ)/σⱼ = (b − Σ wⱼμⱼ/σⱼ) + Σ (wⱼ/σⱼ)xⱼ.
  const bool warm = params_.warm_start && fitted_ && w_.size() == d;
  std::vector<double> w_raw(d, 0.0);
  double b_raw = 0.0;
  if (warm) {
    const auto& mu = scaler_.mean();
    const auto& sd = scaler_.scale();
    b_raw = b_;
    for (std::size_t j = 0; j < d; ++j) {
      w_raw[j] = w_[j] / sd[j];
      b_raw -= w_[j] * mu[j] / sd[j];
    }
  }

  const Matrix xs = scaler_.fit_transform(x);

  // Parameter vector θ = [w; b], dimension d+1 (bias last, unpenalized).
  const std::size_t p = d + 1;
  std::vector<double> theta(p, 0.0);
  // The damped path's objective at θ, once an evaluation has produced it
  // (the warm-start safeguard, then each accepted trial) — reused rather
  // than recomputed at the top of the next iteration.
  std::optional<double> objective;
  // z = X·θ, the next iteration's decision values, and z_trial, scratch for
  // objective evaluations. z_current: an evaluation at θ already filled z.
  std::vector<double> z(n), z_trial(n), mu(n);
  bool z_current = false;
  if (warm) {
    const auto& mu = scaler_.mean();
    const auto& sd = scaler_.scale();
    theta[d] = b_raw;
    for (std::size_t j = 0; j < d; ++j) {
      theta[j] = w_raw[j] * sd[j];
      theta[d] += w_raw[j] * mu[j];
    }
    // Safeguard: a previous optimum can sit in a saturated region of the NEW
    // data (σ(z) pinned at 0/1 ⇒ a floor-ridden Hessian), where undamped
    // Newton stalls instead of converging. Only keep the warm point if it
    // actually beats the cold start on the new objective.
    const std::vector<double> zero(p, 0.0);
    const double warm_obj =
        penalized_nll(xs, y, sample_weight, params_.l2, theta, z.data());
    const double cold_obj = penalized_nll(xs, y, sample_weight, params_.l2,
                                          zero, z_trial.data());
    objective = warm_obj;
    if (warm_obj > cold_obj) {
      std::fill(theta.begin(), theta.end(), 0.0);
      objective = cold_obj;
      z.swap(z_trial);
    }
    z_current = true;
  }

  auto weight_of = [&](std::size_t i) {
    return sample_weight.empty() ? 1.0 : sample_weight[i];
  };

  const auto& kops = kernel::ops();
  for (int it = 0; it < params_.max_iterations; ++it) {
    // Gradient and Hessian of the penalized negative log-likelihood. The
    // X·θ product, the per-sample sigmoids, the Xᵀ·r accumulation (axpy) and
    // the upper-triangular Xᵀ·diag(v)·X rank-1 updates (syrk-lite) all
    // go through the kernel layer; per-accumulator addition order matches
    // the seed's scalar loops, so the solver is bit-for-bit the pre-kernel
    // one.
    std::vector<double> grad(p, 0.0);
    Matrix hess(p, p, 0.0);
    if (!z_current) {
      kops.gemv(xs.flat().data(), n, d, theta.data(), theta[d], z.data());
    }
    z_current = false;
    kops.sigmoid(z.data(), mu.data(), n);
    double* hess_data = hess.row(0).data();
    for (std::size_t i = 0; i < n; ++i) {
      auto row = xs.row(i);
      const double sw = weight_of(i);
      const double r = sw * (mu[i] - y[i]);
      const double v = std::max(sw * mu[i] * (1.0 - mu[i]), 1e-10);
      kops.axpy(r, row.data(), grad.data(), d);
      kops.syrk_rank1_upper(hess_data, p, row.data(), d, v);
      // Bias border column: hess(j, d) is p-strided, kept scalar.
      for (std::size_t j = 0; j < d; ++j) hess(j, d) += v * row[j];
      grad[d] += r;
      hess(d, d) += v;
    }
    for (std::size_t j = 0; j < d; ++j) {
      grad[j] += params_.l2 * theta[j];
      hess(j, j) += params_.l2;
    }
    // Small ridge on the full Hessian keeps Cholesky well-posed even for
    // separable data.
    for (std::size_t j = 0; j < p; ++j) hess(j, j) += 1e-8;
    for (std::size_t j = 0; j < p; ++j)
      for (std::size_t k = j + 1; k < p; ++k) hess(k, j) = hess(j, k);

    auto l = cholesky(hess);
    if (!l) break;  // numerically degenerate; keep current estimate
    const auto step = cholesky_solve(*l, grad);
    double max_step = 0.0;
    if (!params_.warm_start) {
      // Reference path: the undamped Newton step, bit-identical to the seed.
      for (std::size_t j = 0; j < p; ++j) {
        theta[j] -= step[j];
        max_step = std::max(max_step, std::abs(step[j]));
      }
    } else {
      // Damped path: a warm start may iterate through saturated regions
      // where the full Newton step overshoots — backtrack until the
      // objective stops getting worse. If NO halving yields a non-worsening
      // step (the regularized direction is not a descent direction at all),
      // keep the current estimate rather than committing a worsening one;
      // max_step stays 0 and the solve stops here.
      const double obj =
          objective ? *objective
                    : penalized_nll(xs, y, sample_weight, params_.l2, theta,
                                    z_trial.data());
      double scale = 1.0;
      bool accepted = false;
      std::vector<double> trial(p);
      for (int halving = 0; halving < 8; ++halving) {
        for (std::size_t j = 0; j < p; ++j) {
          trial[j] = theta[j] - scale * step[j];
        }
        const double trial_obj = penalized_nll(xs, y, sample_weight,
                                               params_.l2, trial,
                                               z_trial.data());
        if (trial_obj <= obj) {
          accepted = true;
          objective = trial_obj;
          z.swap(z_trial);
          z_current = true;
          break;
        }
        scale *= 0.5;
      }
      if (accepted) {
        for (std::size_t j = 0; j < p; ++j) {
          max_step = std::max(max_step, std::abs(theta[j] - trial[j]));
          theta[j] = trial[j];
        }
      }
    }
    if (max_step < params_.tolerance) break;
  }

  w_.assign(theta.begin(), theta.begin() + static_cast<std::ptrdiff_t>(d));
  b_ = theta[d];
  fitted_ = true;
}

double LogisticRegression::decision(std::span<const double> row) const {
  NURD_CHECK(fitted_, "model not fitted");
  std::vector<double> r(row.begin(), row.end());
  scaler_.transform_row(r);
  return kernel::ops().dot(b_, w_.data(), r.data(), w_.size());
}

double LogisticRegression::predict_proba(std::span<const double> row) const {
  return sigmoid(decision(row));
}

std::vector<double> LogisticRegression::predict_proba(const Matrix& x) const {
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out[i] = predict_proba(x.row(i));
  return out;
}

}  // namespace nurd::ml
