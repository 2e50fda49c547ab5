#include "ml/loss.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"
#include "kernel/kernel.h"

namespace nurd::ml {

void Loss::grad_hess_batch(std::span<const Target> targets,
                           std::span<const double> score,
                           std::span<double> grad,
                           std::span<double> hess) const {
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto gh = grad_hess(targets[i], score[i]);
    grad[i] = gh.grad;
    hess[i] = gh.hess;
  }
}

double SquaredLoss::init_score(std::span<const Target> targets) const {
  if (targets.empty()) return 0.0;
  double s = 0.0;
  for (const auto& t : targets) s += t.value;
  return s / static_cast<double>(targets.size());
}

GradHess SquaredLoss::grad_hess(const Target& target, double score) const {
  return {score - target.value, 1.0};
}

void SquaredLoss::grad_hess_batch(std::span<const Target> targets,
                                  std::span<const double> score,
                                  std::span<double> grad,
                                  std::span<double> hess) const {
  for (std::size_t i = 0; i < targets.size(); ++i) {
    grad[i] = score[i] - targets[i].value;
    hess[i] = 1.0;
  }
}

double LogisticLoss::init_score(std::span<const Target> targets) const {
  if (targets.empty()) return 0.0;
  double pos = 0.0;
  for (const auto& t : targets) pos += t.value;
  const double p = std::clamp(pos / static_cast<double>(targets.size()),
                              1e-6, 1.0 - 1e-6);
  return std::log(p / (1.0 - p));
}

GradHess LogisticLoss::grad_hess(const Target& target, double score) const {
  const double p = sigmoid(score);
  return {p - target.value, std::max(p * (1.0 - p), 1e-12)};
}

void LogisticLoss::grad_hess_batch(std::span<const Target> targets,
                                   std::span<const double> score,
                                   std::span<double> grad,
                                   std::span<double> hess) const {
  // One batched sigmoid (kernel::ops(); hess doubles as the p scratch),
  // then the same per-element grad/hess arithmetic as the scalar path.
  kernel::ops().sigmoid(score.data(), hess.data(), score.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const double p = hess[i];
    grad[i] = p - targets[i].value;
    hess[i] = std::max(p * (1.0 - p), 1e-12);
  }
}

double LogisticLoss::transform(double score) const { return sigmoid(score); }

TobitLoss::TobitLoss(double sigma) : sigma_(sigma) {
  NURD_CHECK(sigma > 0.0, "Tobit sigma must be positive");
}

double TobitLoss::init_score(std::span<const Target> targets) const {
  // Mean of uncensored values; censored values enter as lower bounds only.
  double s = 0.0;
  std::size_t n = 0;
  for (const auto& t : targets) {
    if (!t.censored) {
      s += t.value;
      ++n;
    }
  }
  if (n == 0) {
    for (const auto& t : targets) s += t.value;
    n = targets.size();
  }
  return n == 0 ? 0.0 : s / static_cast<double>(n);
}

double TobitLoss::inverse_mills(double u) {
  // φ(u)/Φ(u). For u below about −8, Φ underflows relative to φ; use the
  // asymptotic expansion φ(u)/Φ(u) ≈ −u + 1/(−u) − ... which is accurate to
  // ~1e-12 there.
  if (u < -8.0) {
    const double a = -u;
    return a + 1.0 / a - 2.0 / (a * a * a);
  }
  const double cdf = std::max(normal_cdf(u), 1e-300);
  return normal_pdf(u) / cdf;
}

GradHess TobitLoss::grad_hess(const Target& target, double score) const {
  // The raw Tobit NLL carries a 1/σ² curvature, which would make leaf
  // Hessian sums vanish against the tree's λ regularization whenever σ is
  // large (latencies are in seconds). We therefore optimize σ²·NLL: the
  // uncensored branch becomes exactly the squared loss and the censored
  // branch stays on the same per-sample scale regardless of σ.
  if (!target.censored) {
    return {score - target.value, 1.0};
  }
  // Right-censored at c = target.value: σ²·(−log Φ((F − c)/σ)).
  const double u = (score - target.value) / sigma_;
  const double mills = inverse_mills(u);
  const double grad = -mills * sigma_;
  // d/du [−log Φ(u)] = −mills(u);  second derivative = mills(u)·(u + mills(u)).
  const double hess = std::max(mills * (u + mills), 1e-12);
  return {grad, hess};
}

void TobitLoss::grad_hess_batch(std::span<const Target> targets,
                                std::span<const double> score,
                                std::span<double> grad,
                                std::span<double> hess) const {
  // Qualified call: devirtualized per-sample math, one dispatch per batch.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto gh = TobitLoss::grad_hess(targets[i], score[i]);
    grad[i] = gh.grad;
    hess[i] = gh.hess;
  }
}

}  // namespace nurd::ml
