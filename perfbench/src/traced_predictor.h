// A forwarding predictor wrapper: the traced run's stage timings, and
// table3-batch's decision latency.
//
// traced() wraps a registry factory: every instance it makes owns the real
// predictor and forwards name(), privilege(), initialize(), staged() and all
// three stage hooks to it, timing the featurize, refit and predict calls.
// It changes no decision; the correctness gate of every wrapped run (flags
// equal to the serial reference) is what shows that. Throughput is never
// timed through it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/predictor.h"
#include "spans.h"
#include "trace/job.h"

namespace perfbench {

enum class StageKind : std::uint8_t {
  kFeaturize = 0,
  kRefit = 1,
  kPredict = 2
};
inline constexpr std::size_t kStageKinds = 3;
const char* stage_kind_name(StageKind kind);

/// One timed stage call.
struct StageSample {
  std::uint32_t job = 0;
  std::uint32_t checkpoint = 0;
  StageKind stage = StageKind::kPredict;
  double start = 0.0;
  double end = 0.0;
};

/// Shared state of every wrapped instance of one pass: the job-id ->
/// input-index map, the stage log, and the span parent. Each thread appends
/// to a buffer of its own, so recording takes no shared lock; a lock is
/// taken only the first time a thread records into this trace.
class StageTrace {
 public:
  /// `recorder` may be null: then only the timed samples are kept.
  StageTrace(std::span<const nurd::trace::Job> jobs, SpanRecorder* recorder);

  /// Input index of the job whose JobContext::job_id is `id`.
  std::uint32_t job_index(std::string_view id) const;

  /// Parent span of the stage spans recorded from now on.
  void set_parent(std::uint32_t parent) { parent_ = parent; }

  void record(const StageSample& sample);

  /// Takes (and clears) the samples recorded so far. Must not run while
  /// any wrapped instance is inside a stage call.
  std::vector<StageSample> take();

 private:
  using Buffer = std::vector<StageSample>;
  Buffer& local_buffer();

  std::unordered_map<std::string, std::uint32_t> index_;
  SpanRecorder* recorder_;
  const std::uint64_t instance_;  ///< never reused, keys the thread cache
  std::atomic<std::uint32_t> parent_{kNoParent};
  std::mutex mutex_;  ///< guards buffers_ (registration and take)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Wraps `inner`'s factory; the trace must outlive every instance made.
nurd::core::NamedPredictor traced(nurd::core::NamedPredictor inner,
                                  StageTrace* trace);

/// Per job, the gaps between refit(t) ending and refit(t+1) starting, in
/// milliseconds (samples of any other stage are ignored).
std::vector<double> refit_chain_gaps_ms(std::span<const StageSample> samples);

}  // namespace perfbench
