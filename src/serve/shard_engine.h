// The per-shard serving engine: the execution core StreamMonitor (one shard,
// the whole fleet) and ShardedMonitor (N shards) share.
//
// A ShardEngine owns NO policy. It is handed a finished plan — the job
// sessions to drive, the admission-ordered event list (each event optionally
// marked shed or handoff-gated) — and executes it: admits events under a
// bounded in-flight window into per-job serial lanes, runs each checkpoint's
// four pipeline stages back to back (on its private ThreadPool, or inline on
// the calling thread at threads == 1), emits flags through the hook sink,
// and reports wall-clock stats. Everything that DECIDES — arrival
// draws, placement, tenant quotas, shed selection, drain boundaries — lives
// in the frontends, computed in simulated time before execution starts, so
// engine scheduling can never feed back into the decision plane. That
// one-way split is what makes the serving layer's determinism contract
// (flag-set identity at any shard count x thread count) hold by
// construction rather than by testing alone.
//
// Sessions are owned by the caller and handed in by span: in the sharded
// fleet a job's session outlives the engine that started it — a drained
// shard's jobs migrate, sessions intact, to another engine, which resumes
// the per-checkpoint protocol exactly where the source stopped (the
// wait_boundary handshake below orders the two engines).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/predictor.h"
#include "eval/harness.h"
#include "trace/job.h"

namespace nurd::serve {

/// One flag decision, as handed to the sink at emission time.
struct FlagDecision {
  std::size_t job = 0;         ///< job input index
  std::size_t task = 0;        ///< task id within the job
  std::size_t checkpoint = 0;  ///< checkpoint the predictor flagged at
  double time = 0.0;           ///< simulated event time: arrival + τrun(cp)
  std::size_t shard = 0;       ///< serving shard (0 outside ShardedMonitor)
  std::size_t tenant = 0;      ///< tenant id (0 outside ShardedMonitor)
};

/// Flag sink. Invoked from pool workers (inside the Flag stage) while run()
/// is in progress: calls for one job arrive in checkpoint order; calls for
/// different jobs may be concurrent — implementations synchronize (see
/// serve::LiveClusterFeed).
using FlagSink = std::function<void(const FlagDecision&)>;

/// The four pipeline stages of one checkpoint, in execution order.
enum class Stage : std::uint8_t {
  kFeaturize = 0,  ///< bind the view, assemble feature blocks
  kRefit = 1,      ///< consume the blocks, update the models
  kPredict = 2,    ///< score candidates, record flags
  kFlag = 3,       ///< confusion accounting + sink emission
};

inline constexpr std::size_t kStageCount = 4;

const char* stage_name(Stage stage);

/// A job's managed serving session: predictor + harness stepper + the
/// scratch cell its checkpoints' stages hand off through (a lane runs one
/// checkpoint at a time, so one cell serves them all). Owned by the frontend
/// so it survives engine handoffs.
struct JobSession {
  std::unique_ptr<core::StragglerPredictor> predictor;
  std::optional<eval::OnlineJobRun> run;
  eval::CheckpointScratch scratch;
};

/// "This event waits for no handoff."
inline constexpr std::size_t kNoHandoff = std::numeric_limits<std::size_t>::max();

/// One admission-plan entry: checkpoint `checkpoint` of job `job` becomes
/// observable at simulated time `time`. The list handed to an engine is the
/// shard's slice of the global plan, ascending in plan admission order
/// (which preserves each job's checkpoint order).
struct EngineEvent {
  double time = 0.0;
  std::uint32_t job = 0;
  std::uint32_t checkpoint = 0;
  /// Load-shed: the checkpoint's model work is skipped (cursors advance,
  /// confusion carries forward, no new flags). Decided by the plan, never
  /// by the engine.
  bool shed = false;
  /// != kNoHandoff: the job migrated here from another engine, and this is
  /// its first event on this one. Admission blocks in hooks.wait_handoff
  /// until the source engine retired every checkpoint below the boundary.
  std::size_t wait_boundary = kNoHandoff;
};

struct EngineConfig {
  /// Stage workers: 1 (default) = fully serialized on the calling thread in
  /// event order — the bit-parity reference; 0 = hardware concurrency;
  /// N = a private pool of N workers.
  std::size_t threads = 1;
  /// Admission bound: at most this many checkpoint events in flight
  /// (admitted, not yet retired). 0 = 4 workers' worth.
  std::size_t max_inflight = 0;
};

/// Frontend callbacks. Only `sink` is optional; the handoff hooks are
/// needed (and installed) only by the sharded fleet.
struct EngineHooks {
  /// Flag delivery (outside every engine lock, before the event retires).
  FlagSink sink;
  /// Blocks until the event's job may start here: its previous engine has
  /// retired every checkpoint below `boundary`. Returns false to abandon
  /// (fleet abort) — the engine then drops the job's remaining events.
  /// Called on the admission thread, outside engine locks.
  std::function<bool(std::size_t job, std::size_t boundary)> wait_handoff;
  /// Checkpoint (job, checkpoint) fully retired: stages done, flags
  /// delivered. Called outside engine locks; per job, calls arrive in
  /// checkpoint order for COMPLETED checkpoints (error-path abandonment may
  /// skip). The fleet uses this to release handoff waiters.
  std::function<void(std::size_t job, std::size_t checkpoint)> retired;
};

/// Wall-clock execution stats of one engine run. Latencies stay raw (and
/// job-attributed) so frontends can aggregate per-fleet and per-tenant.
struct EngineStats {
  std::size_t processed = 0;  ///< checkpoint events completed
  std::size_t flags = 0;      ///< decisions emitted
  std::size_t shed = 0;       ///< shed events executed (skipped model work)
  std::size_t workers = 0;    ///< stage workers used
  std::size_t peak_backlog = 0;
  double wall_seconds = 0.0;
  struct Latency {
    std::uint32_t job = 0;
    double seconds = 0.0;  ///< admission -> checkpoint retired
  };
  std::vector<Latency> latencies;
  /// Cumulative busy seconds per pipeline stage (indexed by Stage).
  std::array<double, kStageCount> stage_seconds{};
};

/// The q-quantile (q in [0, 1]) of ascending latencies in seconds, in
/// milliseconds: element floor(q * n), clamped to the last; 0 when empty.
double percentile_ms(std::span<const double> sorted_seconds, double q);

/// Executes one shard's slice of a serving plan. Single-use: construct,
/// run() once (from any one thread — the fleet runs one driver thread per
/// engine), read stats. `jobs` and `sessions` are fleet-wide and indexed by
/// EngineEvent::job; sessions of jobs never appearing in `events` are
/// untouched.
///
/// Execution: each job is a serial lane — its admitted checkpoints queue in
/// order and one drain at a time runs them, all four stages back to back,
/// which is the per-job ordering the session protocol needs. With N > 1
/// workers, admission pushes each lane that becomes runnable onto worker
/// (k++ % N)'s deque; a worker pops its own deque from the back (LIFO) and,
/// when it is empty, steals from the front of the others (FIFO). At
/// threads == 1 there are no workers: admission drains the lane inline, in
/// plan order — the bit-parity reference.
class ShardEngine {
 public:
  ShardEngine(std::span<const trace::Job> jobs, std::span<JobSession> sessions,
              std::vector<EngineEvent> events, EngineConfig config,
              EngineHooks hooks);
  ~ShardEngine();
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Stream low watermark: every event with time strictly below it has been
  /// fully processed (flags emitted). Safe from any thread mid-run.
  double low_watermark() const;

  /// Checkpoint events admitted and not yet retired. Safe from any thread;
  /// zero once run() has returned or thrown.
  std::size_t inflight() const;

  /// Runs the plan slice to completion. Call once. Throws the first stage
  /// error after draining.
  void run();

  const EngineStats& stats() const;  ///< valid after run()

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nurd::serve
