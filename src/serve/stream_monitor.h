// The concurrent serving layer: many jobs' checkpoint streams multiplexed
// over one shared ThreadPool.
//
// The batch harness (eval::run_method) owns whole jobs end-to-end — fine for
// reproducing Table 3, but nothing like the regime the paper's Algorithm 1
// is written for, where a monitor watches MANY jobs stream checkpoints
// concurrently against shared compute. StreamMonitor is that serving loop:
//
//   * every job gets a managed predictor session — a fresh registry
//     predictor plus an eval::OnlineJobRun stepper (the exact per-checkpoint
//     protocol run_job uses, shared code, not a copy) — created with
//     RefitPolicy::kIncremental by default, because a serving session
//     maintains its models between checkpoints rather than rebuilding them;
//   * checkpoint events arrive interleaved across jobs through a
//     Replay-backed ingestion queue: each job's arrival offset comes from a
//     pluggable sched::ArrivalProcess (batch or Poisson, exactly the cluster
//     simulator's processes), each checkpoint's event time is
//     arrival + τrun, and the merged queue is admitted in ascending event
//     time under a bounded in-flight window;
//   * each job is a serial lane: its admitted checkpoints run one at a
//     time, in order, each as featurize → refit → predict → flag back to
//     back — the PER-JOB ORDERING GUARANTEE the models need (checkpoint
//     t+1's refit never observes state newer than checkpoint t's model,
//     and flag emission within a job follows checkpoint order). Lanes of
//     different jobs run concurrently on the engine's workers;
//   * every flag decision is pushed to a caller-provided FlagSink the moment
//     the predictor emits it — serve::LiveClusterFeed forwards them into the
//     event-driven cluster simulator so predictions drive relaunch decisions
//     live.
//
// Determinism contract (tests/test_stream_monitor.cpp pins all three):
//   * threads == 1 serializes the whole loop on the calling thread in global
//     event-time order; the emitted flags and per-job records are
//     BIT-IDENTICAL to eval::run_method over the same jobs — serving is the
//     batch harness re-scheduled, never a second implementation;
//   * any thread count produces bit-identical per-job records: dispatch
//     decides only WHEN a lane runs, never what it computes (each lane is
//     the job's checkpoints in order; every parallel loop below a stage
//     honors the ThreadPool determinism contract), so the flag SET is
//     identical at 1, 4, or 16 workers — only sink emission ORDER across
//     jobs varies;
//   * the wall-clock stats (latency percentiles, backlog, throughput) are of
//     course run-dependent; everything else is reproducible from the seeds.
//
// Implementation note: the execution core — admission window, lane
// dispatch, stats — lives in serve/shard_engine.h. StreamMonitor
// is the single-shard frontend over one ShardEngine; serve/shard_pool.h
// (ShardedMonitor) runs N of them as a fleet. StreamMonitor owns the plan
// for its engine: draw arrivals, build the merged event queue, done.
//
// Thread-safety: a StreamMonitor instance is driven by one caller thread
// (construct, run(), collect). The FlagSink is the one callback that crosses
// lanes: calls for a single job arrive in checkpoint order, calls for
// different jobs arrive concurrently — the sink synchronizes internally.
// low_watermark() is safe from any thread (sinks query it mid-run).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "sched/cluster.h"
#include "serve/shard_engine.h"  // FlagDecision, FlagSink
#include "trace/job.h"

namespace nurd::serve {

struct StreamMonitorConfig {
  /// Straggler percentile (the harness's pct parameter).
  double pct = 90.0;
  /// Serving workers: 1 (default) = fully serialized on the calling thread
  /// in global event order — the bit-parity reference; 0 = hardware
  /// concurrency; N = a pool of N workers.
  std::size_t threads = 1;
  /// Admission bound: at most this many checkpoint events in flight
  /// (admitted, not yet retired). 0 = 4 workers' worth. Backlog and
  /// decision latency are measured against this window.
  std::size_t max_inflight = 0;
  /// Per-job arrival offsets (null = sched::batch_arrivals(), everything at
  /// t = 0). Drawn once at construction from `arrival_seed`.
  sched::ArrivalProcess arrivals;
  std::uint64_t arrival_seed = 0;
  /// Flag sink (may be null). Sinks that need the monitor itself — like
  /// LiveClusterFeed, which queries low_watermark() — are installed after
  /// construction via StreamMonitor::set_sink instead.
  FlagSink sink;
  /// Refit policy applied by the name-based constructor (serving default:
  /// incremental — a session maintains its models, it does not rebuild them).
  core::RefitPolicy refit = core::RefitPolicy::kIncremental;
};

/// Wall-clock serving statistics for one run().
struct ServeStats {
  std::size_t jobs = 0;
  std::size_t checkpoints = 0;  ///< events processed
  std::size_t flags = 0;        ///< decisions emitted
  std::size_t lanes = 0;        ///< stage workers used
  std::size_t peak_backlog = 0;  ///< max events in flight at once
  double wall_seconds = 0.0;
  double checkpoints_per_sec = 0.0;
  /// Decision latency: admission of a checkpoint event to its checkpoint
  /// retiring (queue wait + all four stages, flags emitted), per event.
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// Cumulative busy time per pipeline stage (featurize, refit, predict,
  /// flag — indexed by Stage), summed across workers. Together with
  /// wall_seconds this is the stage share of the run: with S workers,
  /// sum(stage_seconds) / (S * wall_seconds) is worker utilization.
  std::array<double, kStageCount> stage_seconds{};
};

/// Outcome of one serving run.
struct ServeResult {
  /// Per-job records in job input order — bit-identical to
  /// eval::run_method(method, jobs, pct) at any thread count.
  std::vector<eval::JobRunResult> runs;
  ServeStats stats;
};

class StreamMonitor {
 public:
  /// Serves `jobs` with one fresh `method` predictor per job. The jobs (and
  /// any sink state) must outlive the monitor.
  StreamMonitor(std::span<const trace::Job> jobs,
                core::NamedPredictor method, StreamMonitorConfig config = {});

  /// Registry convenience: looks up `method` with `registry.refit` forced to
  /// `config.refit` (kIncremental unless overridden — the serving default).
  StreamMonitor(std::span<const trace::Job> jobs, const std::string& method,
                core::RegistryConfig registry,
                StreamMonitorConfig config = {});

  ~StreamMonitor();
  StreamMonitor(const StreamMonitor&) = delete;
  StreamMonitor& operator=(const StreamMonitor&) = delete;

  /// Absolute arrival offset per job, as drawn at construction — hand these
  /// to sched::fixed_arrivals so a live cluster replays the same times.
  std::span<const double> arrivals() const;

  /// Installs (or replaces) the flag sink. Must be called before run();
  /// exists because a sink like LiveClusterFeed is constructed FROM the
  /// monitor (it replays the monitor's arrival schedule), so it cannot be in
  /// the config yet.
  void set_sink(FlagSink sink);

  /// Stream low watermark: every checkpoint event with time strictly below
  /// it has been fully processed (its flags emitted). Callable from sinks
  /// mid-run; this is the bound LiveClusterFeed advances the cluster engine
  /// to.
  double low_watermark() const;

  /// Serves every checkpoint of every job. Call once.
  ServeResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nurd::serve
