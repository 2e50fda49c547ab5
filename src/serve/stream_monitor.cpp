#include "serve/stream_monitor.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "serve/shard_engine.h"

namespace nurd::serve {

// The single-shard frontend: StreamMonitor plans (arrival draw + merged
// event queue + session construction) and one ShardEngine executes. The
// engine is built in the constructor — not run() — so low_watermark() is
// answerable from the moment the monitor exists.
struct StreamMonitor::Impl {
  Impl(std::span<const trace::Job> jobs, core::NamedPredictor method,
       StreamMonitorConfig config)
      : jobs_(jobs), method_(std::move(method)), config_(std::move(config)) {
    NURD_CHECK(!jobs.empty(), "no jobs to serve");
    NURD_CHECK(method_.make != nullptr, "method has no factory");

    // Arrival offsets are drawn once, up front, from their own seed — the
    // ingestion schedule is a function of (jobs, arrival process, seed)
    // only, never of serving dynamics.
    Rng rng(config_.arrival_seed);
    arrivals_ = config_.arrivals
                    ? config_.arrivals(jobs.size(), rng)
                    : sched::batch_arrivals()(jobs.size(), rng);
    NURD_CHECK(arrivals_.size() == jobs.size(),
               "arrival process returned wrong count");

    // The merged ingestion queue: every (job, checkpoint) event, ascending
    // (time, job, checkpoint). Within one job τrun is strictly increasing,
    // so the global order preserves each job's checkpoint order.
    std::vector<EngineEvent> events;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      NURD_CHECK(arrivals_[j] >= 0.0, "negative arrival time");
      for (std::size_t t = 0; t < jobs[j].checkpoint_count(); ++t) {
        events.push_back({arrivals_[j] + jobs[j].trace.tau_run(t),
                          static_cast<std::uint32_t>(j),
                          static_cast<std::uint32_t>(t), false, kNoHandoff});
      }
    }
    std::sort(events.begin(), events.end(),
              [](const EngineEvent& a, const EngineEvent& b) {
                return std::tie(a.time, a.job, a.checkpoint) <
                       std::tie(b.time, b.job, b.checkpoint);
              });
    events_ = std::move(events);
  }

  // Deferred to first need (set_sink may still replace the sink): builds the
  // sessions and the engine over the final configuration.
  void ensure_engine() {
    if (engine_) return;
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t workers =
        config_.threads == 0 ? std::max(1u, hw) : config_.threads;
    // Managed sessions: one fresh predictor + one OnlineJobRun per job. The
    // stepper is the run_job protocol itself, so serialized serving is
    // bit-identical to the batch harness by construction.
    sessions_.resize(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      sessions_[j].predictor = method_.make();
      sessions_[j].run.emplace(jobs_[j], *sessions_[j].predictor,
                               config_.pct);
    }
    EngineConfig engine_config;
    engine_config.threads = workers;
    engine_config.max_inflight = config_.max_inflight;
    EngineHooks hooks;
    hooks.sink = config_.sink;
    engine_.emplace(jobs_, std::span<JobSession>(sessions_),
                    std::move(events_), engine_config, std::move(hooks));
  }

  double low_watermark() {
    // Pre-run (and pre-engine) the watermark is the first event time; the
    // engine owns the moving value once it exists.
    if (!engine_) {
      return events_.empty() ? std::numeric_limits<double>::infinity()
                             : events_.front().time;
    }
    return engine_->low_watermark();
  }

  ServeResult run() {
    NURD_CHECK(!ran_, "StreamMonitor::run() called twice");
    ran_ = true;
    ensure_engine();
    engine_->run();

    ServeResult result;
    result.runs.reserve(jobs_.size());
    for (auto& session : sessions_) {
      result.runs.push_back(session.run->take_result());
    }

    const EngineStats& es = engine_->stats();
    ServeStats& s = result.stats;
    s.jobs = jobs_.size();
    s.checkpoints = es.processed;
    s.flags = es.flags;
    s.lanes = es.workers;
    s.peak_backlog = es.peak_backlog;
    s.wall_seconds = es.wall_seconds;
    s.checkpoints_per_sec =
        es.wall_seconds > 0.0
            ? static_cast<double>(es.processed) / es.wall_seconds
            : 0.0;
    std::vector<double> latencies;
    latencies.reserve(es.latencies.size());
    for (const auto& l : es.latencies) latencies.push_back(l.seconds);
    std::sort(latencies.begin(), latencies.end());
    s.p50_latency_ms = percentile_ms(latencies, 0.50);
    s.p99_latency_ms = percentile_ms(latencies, 0.99);
    s.stage_seconds = es.stage_seconds;
    return result;
  }

  std::span<const trace::Job> jobs_;
  core::NamedPredictor method_;
  StreamMonitorConfig config_;
  std::vector<double> arrivals_;
  /// Moved into the engine by ensure_engine(); use low_watermark() /
  /// engine state after that.
  std::vector<EngineEvent> events_;
  std::vector<JobSession> sessions_;
  std::optional<ShardEngine> engine_;
  bool ran_ = false;
};

StreamMonitor::StreamMonitor(std::span<const trace::Job> jobs,
                             core::NamedPredictor method,
                             StreamMonitorConfig config)
    : impl_(std::make_unique<Impl>(jobs, std::move(method),
                                   std::move(config))) {}

StreamMonitor::StreamMonitor(std::span<const trace::Job> jobs,
                             const std::string& method,
                             core::RegistryConfig registry,
                             StreamMonitorConfig config) {
  registry.refit = config.refit;
  impl_ = std::make_unique<Impl>(
      jobs, core::predictor_by_name(method, registry), std::move(config));
}

StreamMonitor::~StreamMonitor() = default;

std::span<const double> StreamMonitor::arrivals() const {
  return impl_->arrivals_;
}

void StreamMonitor::set_sink(FlagSink sink) {
  NURD_CHECK(!impl_->ran_, "set_sink after run()");
  impl_->config_.sink = std::move(sink);
}

double StreamMonitor::low_watermark() const { return impl_->low_watermark(); }

ServeResult StreamMonitor::run() { return impl_->run(); }

}  // namespace nurd::serve
