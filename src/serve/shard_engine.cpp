#include "serve/shard_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <set>

#include "common/check.h"
#include "common/sync.h"
#include "common/thread_pool.h"

namespace nurd::serve {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kFeaturize:
      return "featurize";
    case Stage::kRefit:
      return "refit";
    case Stage::kPredict:
      return "predict";
    case Stage::kFlag:
      return "flag";
  }
  return "?";
}

double percentile_ms(std::span<const double> sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0.0;
  const auto n = sorted_seconds.size();
  auto idx = static_cast<std::size_t>(q * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return sorted_seconds[idx] * 1e3;
}

struct ShardEngine::Impl {
  // Per-job engine-local scheduling state (the session itself is the
  // caller's): a job is a serial lane drained by at most one task at a time.
  struct Admitted {
    double time = 0.0;
    std::uint32_t checkpoint = 0;
    Clock::time_point admitted_at;
  };
  struct LaneState {
    std::deque<Admitted> pending;
    bool scheduled = false;  ///< on a worker deque or being drained
  };

  Impl(std::span<const trace::Job> jobs, std::span<JobSession> sessions,
       std::vector<EngineEvent> events, EngineConfig config,
       EngineHooks hooks)
      : jobs_(jobs),
        sessions_(sessions),
        events_(std::move(events)),
        config_(config),
        hooks_(std::move(hooks)) {
    NURD_CHECK(sessions_.size() == jobs_.size(),
               "one session per job, fleet-wide");
    lanes_.resize(jobs_.size());
    shed_.resize(jobs_.size());
    event_time_.resize(jobs_.size());
    // The plan slice must preserve each job's checkpoint order (ascending,
    // possibly gapped only at the FRONT for migrated-in jobs) — the session
    // protocol admits no other order.
    std::vector<std::size_t> next_seen(jobs_.size(),
                                       std::numeric_limits<std::size_t>::max());
    for (const EngineEvent& ev : events_) {
      NURD_CHECK(ev.job < jobs_.size(), "event job out of range");
      NURD_CHECK(sessions_[ev.job].run.has_value(),
                 "event for a job with no session");
      NURD_CHECK(next_seen[ev.job] == std::numeric_limits<std::size_t>::max() ||
                     ev.checkpoint == next_seen[ev.job],
                 "engine events must follow checkpoint order per job");
      next_seen[ev.job] = ev.checkpoint + 1;
      auto& times = event_time_[ev.job];
      if (times.empty()) times.resize(jobs_[ev.job].checkpoint_count(), 0.0);
      times[ev.checkpoint] = ev.time;
      if (ev.shed) {
        auto& bits = shed_[ev.job];
        if (bits.empty()) bits.resize(jobs_[ev.job].checkpoint_count(), 0);
        bits[ev.checkpoint] = 1;
      }
    }
    next_ingest_time_ = events_.empty()
                            ? std::numeric_limits<double>::infinity()
                            : events_.front().time;
  }

  double low_watermark() const NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return inflight_times_.empty() ? next_ingest_time_
                                   : *inflight_times_.begin();
  }

  std::size_t inflight() const NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return inflight_;
  }

  // Admits `ev` into its lane (caller holds no locks). A lane that was idle
  // becomes runnable: with workers it goes onto the next worker's deque in
  // round-robin order; serialized (no workers) it is drained inline, right
  // here, in plan order.
  void admit(const EngineEvent& ev) NURD_EXCLUDES(mutex_) {
    bool drain_inline = false;
    {
      MutexLock lock(mutex_);
      while (!(inflight_ < cap_ || error_ != nullptr)) cv_.wait(mutex_);
      if (error_) return;  // stop admitting; run() rethrows after the drain
      LaneState& lane = lanes_[ev.job];
      lane.pending.push_back({ev.time, ev.checkpoint, Clock::now()});
      account_admit_locked(ev);
      if (lane.scheduled) return;
      lane.scheduled = true;
      if (ready_.empty()) {
        drain_inline = true;
      } else {
        ready_[inject_++ % ready_.size()].push_back(ev.job);
      }
    }
    if (drain_inline) {
      drain_lane(ev.job);
    } else {
      work_cv_.notify_one();
    }
  }

  void account_admit_locked(const EngineEvent& ev) NURD_REQUIRES(mutex_) {
    ++inflight_;
    inflight_times_.insert(ev.time);
    peak_backlog_ = std::max(peak_backlog_, inflight_);
    ++next_event_;
    next_ingest_time_ = next_event_ < events_.size()
                            ? events_[next_event_].time
                            : std::numeric_limits<double>::infinity();
  }

  bool is_shed(std::size_t job, std::size_t t) const {
    return !shed_[job].empty() && shed_[job][t] != 0;
  }

  // Executes ONE pipeline stage of checkpoint `t` of `job`, timing its body
  // into the per-stage busy counters. The Flag stage is where decisions
  // leave the engine: the sink runs here, OUTSIDE the engine mutex and
  // BEFORE the event's time leaves the in-flight set, so low_watermark()
  // cannot pass a flag that is still being delivered.
  void run_stage(std::size_t job, std::size_t t, Stage stage)
      NURD_EXCLUDES(mutex_) {
    JobSession& session = sessions_[job];
    eval::CheckpointScratch& cell = session.scratch;
    const bool shed = is_shed(job, t);
    const auto began = Clock::now();
    switch (stage) {
      case Stage::kFeaturize:
        session.run->featurize(t, &cell, shed);
        break;
      case Stage::kRefit:
        session.run->refit(t, &cell, shed);
        break;
      case Stage::kPredict:
        session.run->predict(t, &cell, shed);
        break;
      case Stage::kFlag: {
        const auto flagged = session.run->flag(t, &cell);
        if (!flagged.empty()) {
          if (hooks_.sink) {
            const double time = event_time_[job][t];
            for (auto task : flagged) hooks_.sink({job, task, t, time, 0, 0});
          }
          MutexLock lock(mutex_);
          flags_ += flagged.size();
        }
        if (shed) {
          MutexLock lock(mutex_);
          ++shed_count_;
        }
        break;
      }
    }
    stage_nanos_[static_cast<std::size_t>(stage)].fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - began)
                .count()),
        std::memory_order_relaxed);
  }

  // Drains one job's lane: processes admitted checkpoints strictly in order
  // — all four stages back to back — until the lane empties.
  void drain_lane(std::size_t job) NURD_EXCLUDES(mutex_) {
    LaneState& lane = lanes_[job];
    JobSession& session = sessions_[job];
    for (;;) {
      Admitted ev;
      {
        MutexLock lock(mutex_);
        if (lane.pending.empty() || error_) {
          lane.scheduled = false;
          if (error_) abandon_lane_locked(lane);
          return;
        }
        ev = lane.pending.front();
        lane.pending.pop_front();
      }

      try {
        NURD_CHECK(session.run->next_checkpoint() == ev.checkpoint,
                   "lane processed a checkpoint out of order");
        for (std::size_t s = 0; s < kStageCount; ++s) {
          run_stage(job, ev.checkpoint, static_cast<Stage>(s));
        }
      } catch (...) {
        MutexLock lock(mutex_);
        if (!error_) error_ = std::current_exception();
        retire_locked(ev.time);
        lane.scheduled = false;
        abandon_lane_locked(lane);
        return;
      }

      const double latency =
          std::chrono::duration<double>(Clock::now() - ev.admitted_at)
              .count();
      {
        MutexLock lock(mutex_);
        latencies_.push_back({static_cast<std::uint32_t>(job), latency});
        ++processed_;
        retire_locked(ev.time);
      }
      if (hooks_.retired) hooks_.retired(job, ev.checkpoint);
    }
  }

  // One stage worker: pops a runnable lane — from the back of its own deque
  // (LIFO), else from the front of another worker's (FIFO steal) — and
  // drains it. Returns once run() has closed the engine.
  void worker_loop(std::size_t self) NURD_EXCLUDES(mutex_) {
    for (;;) {
      std::size_t job = 0;
      {
        MutexLock lock(mutex_);
        while (!pop_lane_locked(self, &job)) {
          if (closed_) return;
          work_cv_.wait(mutex_);
        }
      }
      drain_lane(job);
    }
  }

  bool pop_lane_locked(std::size_t self, std::size_t* job)
      NURD_REQUIRES(mutex_) {
    std::deque<std::size_t>& own = ready_[self];
    if (!own.empty()) {
      *job = own.back();
      own.pop_back();
      return true;
    }
    for (std::size_t k = 1; k < ready_.size(); ++k) {
      std::deque<std::size_t>& victim = ready_[(self + k) % ready_.size()];
      if (!victim.empty()) {
        *job = victim.front();
        victim.pop_front();
        return true;
      }
    }
    return false;
  }

  // Both _locked helpers require mutex_ held (compiler-enforced).
  void retire_locked(double time) NURD_REQUIRES(mutex_) {
    --inflight_;
    inflight_times_.erase(inflight_times_.find(time));
    cv_.notify_all();
  }

  // A failed lane abandons its backlog so run()'s in-flight count can still
  // drain to zero (the first error is what gets rethrown).
  void abandon_lane_locked(LaneState& lane) NURD_REQUIRES(mutex_) {
    for (const auto& dropped : lane.pending) retire_locked(dropped.time);
    lane.pending.clear();
  }

  void run() NURD_EXCLUDES(mutex_) {
    NURD_CHECK(!ran_, "ShardEngine::run() called twice");
    ran_ = true;

    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t workers =
        config_.threads == 0 ? std::max(1u, hw) : config_.threads;
    cap_ = config_.max_inflight == 0 ? 4 * workers : config_.max_inflight;

    // Serialized (threads == 1): no pool — each event is admitted and its
    // lane drained inline, in plan order. Concurrent: a private pool runs
    // `workers` worker loops over per-worker lane deques, and this thread
    // only admits.
    std::optional<ThreadPool> pool;
    if (workers > 1) {
      {
        MutexLock lock(mutex_);  // preamble, but the field is lock-annotated
        ready_.resize(workers);
      }
      pool.emplace(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        pool->submit([this, w] { worker_loop(w); });
      }
    }

    // `dead` (handoff-abandoned jobs) is touched only on this admission
    // thread.
    std::vector<std::uint8_t> dead(jobs_.size(), 0);
    const auto start = Clock::now();
    for (const EngineEvent& ev : events_) {
      if (dead[ev.job]) continue;
      if (ev.wait_boundary != kNoHandoff) {
        // Migration handshake: block until the source engine retired every
        // checkpoint below the boundary (false = fleet abort).
        if (!hooks_.wait_handoff ||
            !hooks_.wait_handoff(ev.job, ev.wait_boundary)) {
          dead[ev.job] = 1;
          continue;
        }
      }
      admit(ev);
      {
        MutexLock lock(mutex_);
        if (error_) break;
      }
    }
    {
      MutexLock lock(mutex_);
      while (inflight_ != 0) cv_.wait(mutex_);
      closed_ = true;
    }
    work_cv_.notify_all();
    pool.reset();  // joins the worker loops
    {
      MutexLock lock(mutex_);
      if (error_) std::rethrow_exception(error_);
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();

    // Stats assembly holds mutex_: the drain above already guarantees every
    // writer is done (in-flight count zero, worker loops joined), but reading
    // the guarded counters through the same lock they were written under
    // makes the happens-before a compiler-checked fact instead of an
    // argument about pool teardown order.
    {
      MutexLock lock(mutex_);
      stats_.processed = processed_;
      stats_.flags = flags_;
      stats_.shed = shed_count_;
      stats_.workers = workers;
      stats_.peak_backlog = peak_backlog_;
      stats_.wall_seconds = wall;
      stats_.latencies = std::move(latencies_);
    }
    for (std::size_t i = 0; i < kStageCount; ++i) {
      stats_.stage_seconds[i] =
          static_cast<double>(
              stage_nanos_[i].load(std::memory_order_relaxed)) *
          1e-9;
    }
  }

  // ---- owner state: written at construction or in run()'s preamble, before
  // any worker exists; read-only once stage tasks are in flight. Sessions
  // are driven without a lock — a lane has at most one drain at a time.
  // LaneState::pending / ::scheduled are only touched under mutex_ (see
  // drain_lane).
  std::span<const trace::Job> jobs_;
  std::span<JobSession> sessions_;
  std::vector<EngineEvent> events_;  ///< the plan slice, in admission order
  EngineConfig config_;
  EngineHooks hooks_;
  std::vector<LaneState> lanes_;
  /// Per job: 1 where the checkpoint is shed (empty = none shed).
  std::vector<std::vector<std::uint8_t>> shed_;
  /// Per job: simulated event time per checkpoint (filled for plan events).
  std::vector<std::vector<double>> event_time_;
  bool ran_ = false;
  std::size_t cap_ = 1;
  EngineStats stats_;

  mutable Mutex mutex_;
  /// Admission and drain waits: signalled when an event retires.
  CondVar cv_;
  /// Worker waits: signalled when a lane becomes runnable or at close.
  CondVar work_cv_;
  /// Runnable lanes (job ids) per worker; empty when serialized.
  std::vector<std::deque<std::size_t>> ready_ NURD_GUARDED_BY(mutex_);
  /// Round-robin cursor over ready_ for admission pushes.
  std::size_t inject_ NURD_GUARDED_BY(mutex_) = 0;
  /// Set once every admitted event retired; worker loops then return.
  bool closed_ NURD_GUARDED_BY(mutex_) = false;
  std::size_t inflight_ NURD_GUARDED_BY(mutex_) = 0;
  /// Admitted, not yet processed.
  std::multiset<double> inflight_times_ NURD_GUARDED_BY(mutex_);
  /// Next events_ index to admit.
  std::size_t next_event_ NURD_GUARDED_BY(mutex_) = 0;
  double next_ingest_time_ NURD_GUARDED_BY(mutex_) = 0.0;
  std::size_t peak_backlog_ NURD_GUARDED_BY(mutex_) = 0;
  std::size_t processed_ NURD_GUARDED_BY(mutex_) = 0;
  std::size_t flags_ NURD_GUARDED_BY(mutex_) = 0;
  std::size_t shed_count_ NURD_GUARDED_BY(mutex_) = 0;
  /// Seconds, unsorted; moved into stats_ when run() ends.
  std::vector<EngineStats::Latency> latencies_ NURD_GUARDED_BY(mutex_);
  std::exception_ptr error_ NURD_GUARDED_BY(mutex_);

  /// Cumulative busy nanoseconds per pipeline stage, across all workers.
  std::array<std::atomic<std::uint64_t>, kStageCount> stage_nanos_{};
};

ShardEngine::ShardEngine(std::span<const trace::Job> jobs,
                         std::span<JobSession> sessions,
                         std::vector<EngineEvent> events, EngineConfig config,
                         EngineHooks hooks)
    : impl_(std::make_unique<Impl>(jobs, sessions, std::move(events), config,
                                   std::move(hooks))) {}

ShardEngine::~ShardEngine() = default;

double ShardEngine::low_watermark() const { return impl_->low_watermark(); }

std::size_t ShardEngine::inflight() const { return impl_->inflight(); }

void ShardEngine::run() { impl_->run(); }

const EngineStats& ShardEngine::stats() const { return impl_->stats_; }

}  // namespace nurd::serve
