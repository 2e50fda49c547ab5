#include "traced_predictor.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace perfbench {

const char* stage_kind_name(StageKind kind) {
  switch (kind) {
    case StageKind::kFeaturize: return "featurize";
    case StageKind::kRefit: return "refit";
    case StageKind::kPredict: return "predict";
  }
  return "?";
}

namespace {
std::atomic<std::uint64_t> g_next_instance{1};
}  // namespace

StageTrace::StageTrace(std::span<const nurd::trace::Job> jobs,
                       SpanRecorder* recorder)
    : recorder_(recorder),
      instance_(g_next_instance.fetch_add(1, std::memory_order_relaxed)) {
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    index_.emplace(jobs[j].id, static_cast<std::uint32_t>(j));
  }
}

std::uint32_t StageTrace::job_index(std::string_view id) const {
  const auto it = index_.find(std::string(id));
  if (it == index_.end()) {
    throw std::invalid_argument("traced predictor: unknown job id " +
                                std::string(id));
  }
  return it->second;
}

StageTrace::Buffer& StageTrace::local_buffer() {
  // One cached buffer per thread; a thread that moves on to another trace
  // registers a fresh buffer there.
  thread_local std::uint64_t cached_instance = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_instance != instance_) {
    auto buffer = std::make_unique<Buffer>();
    cached = buffer.get();
    cached_instance = instance_;
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buffer));
  }
  return *cached;
}

void StageTrace::record(const StageSample& sample) {
  if (recorder_ != nullptr && recorder_->enabled()) {
    Span span;
    span.id = recorder_->next_id();
    span.parent = parent_.load(std::memory_order_relaxed);
    span.request = request_id(sample.job, sample.checkpoint);
    span.layer = "core";
    span.name = stage_kind_name(sample.stage);
    span.start = sample.start;
    span.end = sample.end;
    recorder_->add(span);
  }
  local_buffer().push_back(sample);
}

std::vector<StageSample> StageTrace::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<StageSample> out;
  for (auto& buffer : buffers_) {
    out.insert(out.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return out;
}

namespace {

class TracedPredictor final : public nurd::core::StragglerPredictor {
 public:
  TracedPredictor(std::unique_ptr<nurd::core::StragglerPredictor> inner,
                  StageTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::string name() const override { return inner_->name(); }
  nurd::core::Privilege privilege() const override {
    return inner_->privilege();
  }
  void initialize(const nurd::core::JobContext& context) override {
    job_ = trace_->job_index(context.job_id);
    inner_->initialize(context);
  }
  std::vector<std::size_t> predict_stragglers(
      const nurd::trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override {
    const double start = now_s();
    auto out = inner_->predict_stragglers(view, candidates);
    log(StageKind::kPredict, view.index(), start);
    return out;
  }
  bool staged() const override { return inner_->staged(); }
  void featurize_checkpoint(const nurd::trace::CheckpointView& view) override {
    const double start = now_s();
    inner_->featurize_checkpoint(view);
    log(StageKind::kFeaturize, view.index(), start);
  }
  void refit_checkpoint(const nurd::trace::CheckpointView& view,
                        std::span<const std::size_t> candidates) override {
    const double start = now_s();
    inner_->refit_checkpoint(view, candidates);
    log(StageKind::kRefit, view.index(), start);
  }

 private:
  void log(StageKind stage, std::size_t checkpoint, double start) {
    trace_->record({job_, static_cast<std::uint32_t>(checkpoint), stage, start,
                    now_s()});
  }

  std::unique_ptr<nurd::core::StragglerPredictor> inner_;
  StageTrace* trace_;
  std::uint32_t job_ = 0;
};

}  // namespace

nurd::core::NamedPredictor traced(nurd::core::NamedPredictor inner,
                                  StageTrace* trace) {
  auto make = std::move(inner.make);
  return {std::move(inner.name), [make = std::move(make), trace]() {
            return std::unique_ptr<nurd::core::StragglerPredictor>(
                std::make_unique<TracedPredictor>(make(), trace));
          }};
}

std::vector<double> refit_chain_gaps_ms(std::span<const StageSample> samples) {
  std::vector<StageSample> refits;
  for (const auto& s : samples) {
    if (s.stage == StageKind::kRefit) refits.push_back(s);
  }
  std::sort(refits.begin(), refits.end(),
            [](const StageSample& a, const StageSample& b) {
              return a.job != b.job ? a.job < b.job
                                    : a.checkpoint < b.checkpoint;
            });
  std::vector<double> gaps;
  for (std::size_t i = 1; i < refits.size(); ++i) {
    const auto& prev = refits[i - 1];
    const auto& cur = refits[i];
    if (cur.job == prev.job && cur.checkpoint == prev.checkpoint + 1) {
      gaps.push_back((cur.start - prev.end) * 1e3);
    }
  }
  return gaps;
}

}  // namespace perfbench
