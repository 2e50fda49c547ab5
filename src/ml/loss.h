// Loss functions for second-order (Newton) gradient boosting. One tree
// engine serves three losses:
//   SquaredLoss  — GBTR baseline and NURD's latency predictor ht
//   LogisticLoss — boosted classifier (XGBOD, PU-EN base learner)
//   TobitLoss    — Grabit (Sigrist & Hirnschall 2019): Gaussian latent
//                  variable with right-censoring, for censored regression
//                  at each checkpoint's observation horizon τrun_t.
#pragma once

#include <memory>
#include <span>
#include <vector>

namespace nurd::ml {

/// First and second derivative of a loss at one sample.
struct GradHess {
  double grad = 0.0;
  double hess = 0.0;
};

/// Per-sample training target. `value` is the label (latency for regression,
/// 0/1 for classification); `censored` marks a right-censored observation
/// (the true value is only known to be ≥ `value`). Losses that do not model
/// censoring ignore the flag.
struct Target {
  double value = 0.0;
  bool censored = false;
};

/// Interface for twice-differentiable losses used by GradientBoosting.
class Loss {
 public:
  virtual ~Loss() = default;

  /// Constant initial model score F0 (e.g. mean for squared loss, log-odds
  /// for logistic).
  virtual double init_score(std::span<const Target> targets) const = 0;

  /// Gradient and Hessian of the loss w.r.t. the raw score at one sample.
  virtual GradHess grad_hess(const Target& target, double score) const = 0;

  /// Batched grad_hess over a whole training block — the boosting engine's
  /// per-round hot loop. One virtual dispatch per ROUND instead of one per
  /// sample; concrete losses override with direct loops (LogisticLoss routes
  /// its sigmoid through the kernel layer). Element i of grad/hess receives
  /// grad_hess(targets[i], score[i]) — every override is element-for-element
  /// identical to the scalar path.
  virtual void grad_hess_batch(std::span<const Target> targets,
                               std::span<const double> score,
                               std::span<double> grad,
                               std::span<double> hess) const;

  /// Maps a raw boosted score to the model's output space (identity for
  /// regression, sigmoid for logistic).
  virtual double transform(double score) const { return score; }
};

/// ½(y−F)² — plain least-squares boosting.
class SquaredLoss final : public Loss {
 public:
  double init_score(std::span<const Target> targets) const override;
  GradHess grad_hess(const Target& target, double score) const override;
  void grad_hess_batch(std::span<const Target> targets,
                       std::span<const double> score, std::span<double> grad,
                       std::span<double> hess) const override;
};

/// Binary cross-entropy on labels in {0,1}; raw score is the log-odds.
class LogisticLoss final : public Loss {
 public:
  double init_score(std::span<const Target> targets) const override;
  GradHess grad_hess(const Target& target, double score) const override;
  void grad_hess_batch(std::span<const Target> targets,
                       std::span<const double> score, std::span<double> grad,
                       std::span<double> hess) const override;
  double transform(double score) const override;
};

/// Tobit (type-I) loss with a Gaussian latent variable of fixed scale sigma:
/// uncensored samples contribute a squared-error term, right-censored samples
/// contribute −log Φ((F − c)/σ). This is the Grabit objective.
class TobitLoss final : public Loss {
 public:
  /// sigma > 0 is the latent noise scale; callers typically set it to the
  /// standard deviation of the uncensored targets.
  explicit TobitLoss(double sigma);

  double init_score(std::span<const Target> targets) const override;
  GradHess grad_hess(const Target& target, double score) const override;
  void grad_hess_batch(std::span<const Target> targets,
                       std::span<const double> score, std::span<double> grad,
                       std::span<double> hess) const override;

  double sigma() const { return sigma_; }

  /// Inverse Mills ratio φ(u)/Φ(u), numerically stable for u ≪ 0 where both
  /// terms underflow (asymptotic −u + tail expansion). Exposed for tests.
  static double inverse_mills(double u);

 private:
  double sigma_;
};

}  // namespace nurd::ml
