// Shared test fixture for the serving error path: a registry method wrapped
// so that one checkpoint of one job throws from predict_stragglers.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/predictor.h"

namespace nurd::serve {

inline constexpr const char* kInjectedFailure = "injected stage failure";

/// Forwards to `inner`, except that predict_stragglers throws
/// std::runtime_error(kInjectedFailure) at checkpoint `checkpoint` of the
/// job whose id is `job_id`.
class FailingPredictor : public core::StragglerPredictor {
 public:
  FailingPredictor(std::unique_ptr<core::StragglerPredictor> inner,
                   std::string job_id, std::size_t checkpoint)
      : inner_(std::move(inner)),
        fail_job_(std::move(job_id)),
        fail_checkpoint_(checkpoint) {}

  std::string name() const override { return inner_->name(); }

  void initialize(const core::JobContext& context) override {
    job_id_ = std::string(context.job_id);
    inner_->initialize(context);
  }

  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override {
    if (job_id_ == fail_job_ && view.index() == fail_checkpoint_) {
      throw std::runtime_error(kInjectedFailure);
    }
    return inner_->predict_stragglers(view, candidates);
  }

 private:
  std::unique_ptr<core::StragglerPredictor> inner_;
  std::string fail_job_;
  std::size_t fail_checkpoint_;
  std::string job_id_;
};

inline core::NamedPredictor failing_method(core::NamedPredictor inner,
                                           std::string job_id,
                                           std::size_t checkpoint) {
  auto make = [inner = std::move(inner.make), job_id = std::move(job_id),
               checkpoint] {
    return std::make_unique<FailingPredictor>(inner(), job_id, checkpoint);
  };
  return {inner.name, std::move(make)};
}

/// Runs `run` and expects exactly the injected failure to come out of it.
inline void expect_injected_failure(const std::function<void()>& run) {
  try {
    run();
    ADD_FAILURE() << "run() returned without rethrowing the stage error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), kInjectedFailure);
  }
}

}  // namespace nurd::serve
