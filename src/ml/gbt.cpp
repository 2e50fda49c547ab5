#include "ml/gbt.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/check.h"
#include "kernel/kernel.h"

namespace nurd::ml {

GradientBoosting::GradientBoosting(std::unique_ptr<Loss> loss,
                                   GbtParams params)
    : loss_(std::move(loss)), params_(params) {
  NURD_CHECK(loss_ != nullptr, "loss must not be null");
  NURD_CHECK(params_.n_rounds > 0, "n_rounds must be positive");
  NURD_CHECK(params_.learning_rate > 0.0, "learning_rate must be positive");
}

GradientBoosting GradientBoosting::regressor(GbtParams params) {
  return {std::make_unique<SquaredLoss>(), params};
}

GradientBoosting GradientBoosting::classifier(GbtParams params) {
  return {std::make_unique<LogisticLoss>(), params};
}

GradientBoosting GradientBoosting::grabit(double sigma, GbtParams params) {
  return {std::make_unique<TobitLoss>(sigma), params};
}

void GradientBoosting::set_loss(std::unique_ptr<Loss> loss) {
  NURD_CHECK(loss != nullptr, "loss must not be null");
  loss_ = std::move(loss);
}

void GradientBoosting::fit(const Matrix& x, std::span<const double> y) {
  std::vector<Target> targets(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) targets[i] = {y[i], false};
  fit(x, targets);
}

void GradientBoosting::fit(const Matrix& x, std::span<const Target> targets) {
  NURD_CHECK(x.rows() == targets.size(), "row/target count mismatch");
  NURD_CHECK(x.rows() > 0, "cannot fit on empty data");

  const std::size_t n = x.rows();
  trees_.clear();
  tree_rate_.clear();
  base_score_ = loss_->init_score(targets);

  std::vector<double> score(n, base_score_);
  Rng rng(params_.seed);

  // Histogram backend: quantile-bin every feature ONCE per fit and share the
  // binner across all rounds — per-round row subsamples index into it, so no
  // tree ever re-sorts or re-bins.
  std::optional<FeatureBinner> binner;
  if (histogram_enabled(params_.tree, n)) {
    std::vector<std::size_t> all_rows(n);
    std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});
    binner.emplace(x, all_rows, params_.tree.max_bins);
  }

  boost(x, targets, params_.n_rounds, params_.learning_rate, score,
        binner ? &*binner : nullptr, rng);
  fitted_ = true;

  if (params_.warm_start) {
    train_score_ = std::move(score);
    score_trees_.assign(n, trees_.size());
    binner_ = std::move(binner);
    rng_ = rng;
    n_trained_ = n;
    n_full_fit_ = n;
  }
}

void GradientBoosting::continue_fit(
    const Matrix& x, std::span<const Target> targets, int rounds,
    std::span<const std::size_t> changed_rows,
    std::span<const std::size_t> inserted_rows,
    std::span<const std::size_t> retargeted_rows) {
  NURD_CHECK(params_.warm_start,
             "continue_fit requires warm_start in the params");
  NURD_CHECK(fitted_, "continue_fit requires a prior fit");
  NURD_CHECK(x.rows() == targets.size(), "row/target count mismatch");
  NURD_CHECK(x.rows() >= n_trained_, "warm-start fits only grow");
  NURD_CHECK(inserted_rows.empty() ||
                 inserted_rows.size() == x.rows() - n_trained_,
             "inserted_rows must account for every new row");
  NURD_CHECK(rounds >= 0, "rounds must be non-negative");
  const std::size_t n = x.rows();
  // Validate the splice map BEFORE the remap loop below walks the old
  // buffers: an unsorted or duplicated position would otherwise overrun the
  // carried-over prefix first and only then hit a guard.
  for (std::size_t i = 0; i < inserted_rows.size(); ++i) {
    NURD_CHECK(inserted_rows[i] < n &&
                   (i == 0 || inserted_rows[i] > inserted_rows[i - 1]),
               "inserted_rows must be strictly ascending and in range");
  }
  for (const auto r : changed_rows) {
    NURD_CHECK(r < n, "changed row index out of range");
  }
  for (const auto r : retargeted_rows) {
    NURD_CHECK(r < n, "retargeted row index out of range");
  }

  // Carry (appends) or remap in place, back to front (mid-block insertions)
  // the cached training scores. Inserted and changed rows restart from the
  // base score with no trees folded in; like every row whose cache lags the
  // ensemble, they replay the missing trees when boost() next reads them.
  // This is the O(n) step a from-scratch refit pays as O(n·rounds) instead.
  const std::size_t n_old = n_trained_;
  train_score_.resize(n);
  score_trees_.resize(n);
  if (inserted_rows.empty()) {
    std::fill(train_score_.begin() + static_cast<std::ptrdiff_t>(n_old),
              train_score_.end(), base_score_);
    std::fill(score_trees_.begin() + static_cast<std::ptrdiff_t>(n_old),
              score_trees_.end(), 0u);
  } else {
    std::size_t old_r = n_old;
    std::size_t next = inserted_rows.size();
    for (std::size_t r = n; r-- > 0;) {
      if (next > 0 && inserted_rows[next - 1] == r) {
        --next;
        train_score_[r] = base_score_;
        score_trees_[r] = 0;
      } else {
        --old_r;
        train_score_[r] = train_score_[old_r];
        score_trees_[r] = score_trees_[old_r];
      }
    }
  }
  for (const auto r : changed_rows) {
    train_score_[r] = base_score_;
    score_trees_[r] = 0;
  }

  // The binner is built once, the first time the fit reaches histogram
  // scale, and its quantile edges are FROZEN from then on: later rows are
  // spliced in against the frozen sketch (clamping into boundary bins),
  // which is what makes per-checkpoint bin maintenance O(n·d) copy instead
  // of O(n·d·log n) re-sorting.
  if (histogram_enabled(params_.tree, n)) {
    if (!binner_) {
      std::vector<std::size_t> all_rows(n);
      std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});
      binner_.emplace(x, all_rows, params_.tree.max_bins);
    } else {
      if (inserted_rows.empty()) {
        binner_->append_rows(x);
      } else {
        binner_->insert_rows(x, inserted_rows);
      }
      binner_->rebin_rows(x, changed_rows);
    }
  }

  // Active-set continuation: a converged ensemble's gradient is concentrated
  // on the rows whose (features, target) pair actually moved — the inserted,
  // changed and retargeted rows — so the continuation trees are fitted on
  // that subset (plus anchors, below) only. Each round then costs
  // O(|active|·d) for split finding and O(|active|·depth) for the score
  // update; every other row's score catches up lazily. The round COUNT stays
  // at the caller's budget (residual absorption is multiplicative per round,
  // (1−lr)^rounds, and does not shrink with the delta), the round COST is
  // what the delta buys down. With nothing marked the subset is empty and
  // the rounds fall back to whole-block boosting (plain "more rounds"
  // continuation).
  std::vector<std::size_t> subset(inserted_rows.begin(), inserted_rows.end());
  subset.insert(subset.end(), changed_rows.begin(), changed_rows.end());
  subset.insert(subset.end(), retargeted_rows.begin(), retargeted_rows.end());
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());

  // Anchors: a sample of settled rows (gradient ≈ 0), three per moved row,
  // joins the active set. Without them a tree fitted on moved rows alone
  // assigns every leaf the moved rows' correction, which BLEEDS onto all the
  // settled rows sharing those feature regions; with them the split gain
  // rewards isolating the moved rows first (their gradients differ from the
  // anchors'), pure-fresh leaves take the full Newton step, and mixed leaves
  // are damped by the anchors' Hessian mass.
  if (!subset.empty() && subset.size() < n) {
    const auto anchors =
        std::min(n - subset.size(), 3 * subset.size());
    const auto sampled = rng_.sample_without_replacement(n, anchors);
    subset.insert(subset.end(), sampled.begin(), sampled.end());
    std::sort(subset.begin(), subset.end());
    subset.erase(std::unique(subset.begin(), subset.end()), subset.end());
  }

  // The rounds read the active rows' scores (every row's, without an active
  // set): bring those up to date first, and mark them current after.
  std::vector<std::size_t> all_rows;
  if (subset.empty()) {
    all_rows.resize(n);
    std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});
  }
  const std::span<const std::size_t> read =
      subset.empty() ? std::span<const std::size_t>(all_rows) : subset;
  catch_up(x, read);
  const double rate =
      std::min(0.5, params_.warm_rate_factor * params_.learning_rate);
  boost(x, targets, rounds, rate, train_score_,
        binner_ ? &*binner_ : nullptr, rng_, subset);
  for (const auto r : read) {
    score_trees_[r] = static_cast<std::uint32_t>(trees_.size());
  }
  n_trained_ = n;
}

// Replays the trees the listed rows' cached scores are missing, in
// ensemble order and with predict_raw's arithmetic (score += rate_k ·
// tree_k(row)) — the same multiply-then-add every boosting round's score
// update performs, so a caught-up score is bit-identical to one updated
// eagerly each round.
void GradientBoosting::catch_up(const Matrix& x,
                                std::span<const std::size_t> rows) {
  for (const auto r : rows) {
    const auto row = x.row(r);
    double s = train_score_[r];
    for (std::size_t k = score_trees_[r]; k < trees_.size(); ++k) {
      s += tree_rate_[k] * trees_[k].predict(row);
    }
    train_score_[r] = s;
    score_trees_[r] = static_cast<std::uint32_t>(trees_.size());
  }
}

void GradientBoosting::continue_fit(const Matrix& x, std::span<const double> y,
                                    int rounds,
                                    std::span<const std::size_t> changed_rows,
                                    std::span<const std::size_t> inserted_rows) {
  std::vector<Target> targets(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) targets[i] = {y[i], false};
  continue_fit(x, targets, rounds, changed_rows, inserted_rows);
}

void GradientBoosting::boost(const Matrix& x, std::span<const Target> targets,
                             int rounds, double rate,
                             std::vector<double>& score,
                             const FeatureBinner* binner, Rng& rng,
                             std::span<const std::size_t> subset) {
  const std::size_t n = x.rows();
  std::vector<double> grad(n), hess(n), pred(n);
  std::vector<std::size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});
  const bool active_set = !subset.empty();
  const bool resample = !active_set && params_.subsample < 1.0;
  const auto& kops = kernel::ops();

  // The call's root rows (the active set, or every row) are fixed across
  // rounds, so the exact builder sorts them once here; only per-round row
  // subsamples re-presort.
  const std::span<const std::size_t> root =
      active_set ? subset : std::span<const std::size_t>(all_rows);
  ExactOrder order;
  if (binner == nullptr && !resample) order.assign(x, root);
  std::vector<std::size_t> sample;

  for (int round = 0; round < rounds; ++round) {
    if (active_set) {
      for (const auto i : subset) {
        const auto gh = loss_->grad_hess(targets[i], score[i]);
        grad[i] = gh.grad;
        hess[i] = gh.hess;
      }
    } else {
      // One virtual dispatch for the whole block; kernel-batched inside.
      loss_->grad_hess_batch(targets, score, grad, hess);
    }

    std::span<const std::size_t> rows = root;
    if (resample) {
      const auto k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 params_.subsample * static_cast<double>(n)));
      sample = rng.sample_without_replacement(n, k);
      rows = sample;
      if (binner == nullptr) order.assign(x, rows);
    }

    RegressionTree tree;
    if (binner != nullptr) {
      tree.fit(x, *binner, grad, hess, rows, params_.tree, rng);
    } else {
      tree.fit(x, order, grad, hess, params_.tree, rng);
    }

    if (active_set) {
      // Only the active rows' scores are read by later rounds; the rest
      // catch up when next read (catch_up).
      for (const auto i : subset) score[i] += rate * tree.predict(x.row(i));
    } else {
      for (std::size_t i = 0; i < n; ++i) pred[i] = tree.predict(x.row(i));
      kops.axpy(rate, pred.data(), score.data(), n);
    }
    trees_.push_back(std::move(tree));
    tree_rate_.push_back(rate);
  }
}

double GradientBoosting::predict_raw(std::span<const double> row) const {
  NURD_CHECK(fitted_, "model not fitted");
  double s = base_score_;
  for (std::size_t i = 0; i < trees_.size(); ++i) {
    s += tree_rate_[i] * trees_[i].predict(row);
  }
  return s;
}

double GradientBoosting::predict(std::span<const double> row) const {
  return loss_->transform(predict_raw(row));
}

std::vector<double> GradientBoosting::predict(const Matrix& x) const {
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out[i] = predict(x.row(i));
  return out;
}

}  // namespace nurd::ml
