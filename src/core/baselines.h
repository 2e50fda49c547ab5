// Adapters exposing every baseline from the paper's §6 "Comparisons" through
// the online StragglerPredictor interface. Each adapter documents how the
// underlying (usually offline) method is driven by streaming checkpoint
// data; the adaptations follow the paper and DESIGN.md §3.
//
// All adapters consume trace::CheckpointView through a shared FitSession —
// the featurization layer that assembles each checkpoint's design blocks
// (finished rows, membership labels, the dense snapshot) exactly once into
// reused scratch. Under RefitPolicy::kFull every adapter behaves
// bit-identically to the hand-rolled per-adapter gathers it replaced; under
// kIncremental the session maintains the blocks from the view's delta, the
// GBT-backed adapters warm-start their boosters, and the snapshot-backed
// adapters skip rewriting unchanged rows (their decisions stay bit-identical
// across policies, since the snapshot content does not change — only how it
// is kept up to date).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "censored/coxph.h"
#include "censored/tobit.h"
#include "core/fit_session.h"
#include "core/predictor.h"
#include "ml/gbt.h"
#include "ml/linear_svm.h"
#include "outlier/detector.h"
#include "outlier/ensemble_detectors.h"
#include "pu/pu_bg.h"
#include "pu/pu_en.h"

namespace nurd::core {

/// Supervised baseline: gradient-boosted regression on finished tasks only;
/// flags a task when the (unweighted) latency prediction reaches τstra.
/// Exactly NURD's ht without the reweighting stage — the paper's
/// demonstration of negative-only training bias. Under kIncremental the
/// booster warm-continues on the appended completions like NURD's ht.
class GbtrPredictor final : public StragglerPredictor {
 public:
  explicit GbtrPredictor(ml::GbtParams params = {},
                         RefitPolicy refit = RefitPolicy::kFull);
  std::string name() const override { return "GBTR"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

  /// Staged pipeline (see StragglerPredictor): featurize stages the
  /// finished block, refit replicates the guard-then-fit sequence,
  /// predict_stragglers then only scores.
  bool staged() const override { return true; }
  void featurize_checkpoint(const trace::CheckpointView& view) override;
  void refit_checkpoint(const trace::CheckpointView& view,
                        std::span<const std::size_t> candidates) override;

 private:
  ml::GbtParams params_;
  double tau_stra_ = 0.0;
  FitSession session_;
  GbtRefitState model_;
  std::size_t fitted_checkpoint_ = trace::kNoCheckpoint;
};

/// Generic adapter for the 13 unsupervised detectors: at each checkpoint the
/// detector is fitted on the full feature snapshot and candidates whose
/// scores exceed the contamination threshold (default 0.1, matching the p90
/// straggler definition) are flagged. The snapshot comes from the session,
/// so under kIncremental only delta rows are rewritten; the detector itself
/// refits whole (their fits are not incrementalizable), and flag decisions
/// are bit-identical across policies.
class OutlierPredictor final : public StragglerPredictor {
 public:
  using DetectorFactory =
      std::function<std::unique_ptr<outlier::Detector>()>;

  OutlierPredictor(std::string name, DetectorFactory make,
                   double contamination = 0.1,
                   RefitPolicy refit = RefitPolicy::kFull);
  std::string name() const override { return name_; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  std::string name_;
  DetectorFactory make_;
  double contamination_;
  FitSession session_;
};

/// XGBOD adapter: TOS-augmented boosted classifier trained on the
/// finished(0)/running(1) pseudo-labels available online (DESIGN.md §1).
class XgbodPredictor final : public StragglerPredictor {
 public:
  explicit XgbodPredictor(outlier::XgbodParams params = {},
                          double contamination = 0.1,
                          RefitPolicy refit = RefitPolicy::kFull);
  std::string name() const override { return "XGBOD"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  outlier::XgbodParams params_;
  double contamination_;
  FitSession session_;
};

/// PU-EN adapter (Elkan–Noto with swapped roles): flags a candidate when the
/// calibrated probability of belonging to the labeled (finished) class drops
/// below 1/2. The labeled side is the session's finished block; the
/// unlabeled side (shrinking running set) is gathered per checkpoint.
class PuEnPredictor final : public StragglerPredictor {
 public:
  explicit PuEnPredictor(pu::PuEnParams params = {},
                         RefitPolicy refit = RefitPolicy::kFull);
  std::string name() const override { return "PU-EN"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  pu::PuEnParams params_;
  FitSession session_;
  Matrix unlabeled_;
};

/// PU-BG adapter (bagging SVM): flags a candidate when its aggregated
/// out-of-bag decision value leans toward the non-finished side (> 0).
class PuBgPredictor final : public StragglerPredictor {
 public:
  explicit PuBgPredictor(pu::PuBgParams params = {},
                         RefitPolicy refit = RefitPolicy::kFull);
  std::string name() const override { return "PU-BG"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  pu::PuBgParams params_;
  FitSession session_;
  Matrix unlabeled_;
};

/// Linear Tobit adapter: all tasks enter the fit (finished uncensored,
/// running right-censored at τrun_t); flags when the latent prediction
/// reaches τstra.
class TobitPredictor final : public StragglerPredictor {
 public:
  explicit TobitPredictor(censored::TobitParams params = {},
                          RefitPolicy refit = RefitPolicy::kFull);
  std::string name() const override { return "Tobit"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  censored::TobitParams params_;
  double tau_stra_ = 0.0;
  FitSession session_;
};

/// Grabit adapter: gradient boosting with the Tobit loss; σ is set to the
/// stddev of the finished tasks' latencies at each checkpoint. Under
/// kIncremental the booster warm-continues over the delta-patched snapshot
/// (the censoring horizon moving is just a target change, which boosting
/// continuation absorbs round by round) with σ swapped in per checkpoint.
class GrabitPredictor final : public StragglerPredictor {
 public:
  explicit GrabitPredictor(ml::GbtParams params = {},
                           RefitPolicy refit = RefitPolicy::kFull);
  std::string name() const override { return "Grabit"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  ml::GbtParams params_;
  double tau_stra_ = 0.0;
  FitSession session_;
  std::optional<ml::GradientBoosting> model_;
  std::size_t last_fit_cp_ = 0;  ///< checkpoint of model_'s last (re)fit
  std::size_t full_fit_finished_ = 0;  ///< |finished| at the last full fit
  std::vector<std::size_t> retargeted_scratch_;  ///< newly finished + running
  std::vector<std::size_t> changed_scratch_;
};

/// CoxPH adapter: completion is the event; flags when the predicted
/// probability of surviving past τstra reaches 1/2.
class CoxPredictor final : public StragglerPredictor {
 public:
  explicit CoxPredictor(censored::CoxParams params = {},
                        RefitPolicy refit = RefitPolicy::kFull);
  std::string name() const override { return "CoxPH"; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  censored::CoxParams params_;
  double tau_stra_ = 0.0;
  FitSession session_;
};

/// Wrangler (Yadwadkar et al. 2014): the one privileged baseline — a random
/// 2/3 of the job's tasks (with their true labels, stragglers included) form
/// an offline training sample, stragglers are oversampled to balance, and a
/// linear SVM classifies the rest at every checkpoint. Mirrors §6 exactly.
/// The true labels arrive through the explicit OfflineSample capability the
/// harness grants to Privilege::kOfflineLabels methods. Under kIncremental
/// the training matrix is patched in place from the rows the trace delta
/// reports changed (∩ the training sample) instead of re-gathered — the SVM
/// refit itself is unchanged, so decisions match kFull bit-identically.
class WranglerPredictor final : public StragglerPredictor {
 public:
  explicit WranglerPredictor(ml::SvmParams params = {},
                             double train_fraction = 2.0 / 3.0,
                             std::uint64_t seed = 97,
                             RefitPolicy refit = RefitPolicy::kFull);
  std::string name() const override { return "Wrangler"; }
  Privilege privilege() const override { return Privilege::kOfflineLabels; }
  void initialize(const JobContext& context) override;
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override;

 private:
  ml::SvmParams params_;
  double train_fraction_;
  std::uint64_t seed_;
  RefitPolicy refit_;
  std::vector<std::size_t> train_ids_;
  std::vector<int> labels_;
  Matrix x_;
  // Sample weights (straggler oversampling) are fixed per job; built on the
  // first non-degenerate fit.
  std::vector<double> y_;
  std::vector<double> w_;
  // Incremental bookkeeping: task id -> row of x_ (or npos), and the
  // checkpoint x_ currently reflects.
  std::vector<std::size_t> train_pos_;
  std::size_t x_as_of_ = trace::kNoCheckpoint;
  std::vector<std::size_t> changed_scratch_;
};

}  // namespace nurd::core
