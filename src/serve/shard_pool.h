// The sharded multi-tenant serving fleet: N StreamMonitor-class shards —
// each a ShardEngine with its own ThreadPool running per-job lanes — behind
// a job-placement policy, per-tenant admission quotas, QoS-tiered
// load-shedding, and graceful shard drain/rebalance.
//
// Two planes, strictly one-way:
//
//   PLAN (simulated time, deterministic)        EXECUTE (wall clock)
//   ─────────────────────────────────────       ─────────────────────────
//   arrival draws → per-tenant GCRA quota   →   one driver thread + engine
//   deferral → placement (+ drain           →   per shard; handoff
//   re-placement) → modeled per-shard       →   handshakes order migrated
//   backlog → QoS-tiered shed marks         →   jobs across engines
//
// Every DECISION — which shard a job serves on, when a tenant's event is
// admitted, which checkpoints are shed, where a drained shard's jobs go —
// is computed in the plan plane as a pure function of (jobs, arrival
// process, seeds, config) before any worker exists. Execution timing can
// reorder WHEN stage work runs, never WHAT it computes. Consequences,
// pinned by tests/test_shard_pool.cpp:
//
//   * flag-set identity across shard count × thread count: with shedding
//     off, the per-job records (and therefore the flag set) are
//     bit-identical at shards ∈ {1, 2, 4} × workers ∈ {1, 4} — and equal to
//     eval::run_method — because each job's session runs the same
//     per-checkpoint protocol wherever it is placed;
//   * quotas never change decisions: GCRA deferral shifts an event's
//     ADMISSION time, and per-tenant token times are monotone, so each
//     job's checkpoint order is preserved — an over-quota tenant queues
//     behind its own budget, it does not starve others, and nobody's flags
//     change;
//   * shedding is deterministic at a fixed config: shed marks come from the
//     modeled backlog (per-shard FCFS at `service_rate` in simulated time),
//     so reruns shed the same checkpoints. Only events of QoS classes below
//     `shed_floor` are ever shed, never a job's final checkpoint, and never
//     an already-admitted event (marks are planned pre-admission);
//   * drain/rebalance preserves the per-job checkpoint serial lane: a
//     drained shard finishes its admitted work, its jobs re-place onto open
//     shards, and the receiving engine blocks the job's first event until
//     the source retired everything below the boundary — the flag set is
//     bit-identical to the undrained run. Handoffs only ever leave drained
//     shards and drained shards never reopen, so handoff waits cannot form
//     a cycle.
//
// Lock ordering (see common/sync.h): ShardedMonitor::mutex_ is taken by
// engine callbacks (retired / wait_handoff) that hold no engine lock, and
// never calls into engines while held — it nests with nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/registry.h"
#include "sched/cluster.h"
#include "serve/placement.h"
#include "serve/stream_monitor.h"
#include "trace/job.h"

namespace nurd::serve {

/// QoS class of a tenant's traffic, lowest first. Shedding consumes classes
/// strictly below the configured floor; admission quotas are orthogonal.
enum class QoS : std::uint8_t {
  kBatch = 0,        ///< throughput traffic; first to shed
  kStandard = 1,     ///< default
  kInteractive = 2,  ///< latency-sensitive; sheds only if the floor says so
};

/// One tenant of the fleet. Jobs map to tenants via
/// ShardedMonitorConfig::tenant_of.
struct TenantSpec {
  std::string name = "default";
  QoS qos = QoS::kStandard;
  /// Admission quota: sustained checkpoint events per simulated second a
  /// tenant may admit (GCRA token bucket). 0 = unmetered.
  double quota_rate = 0.0;
  /// Burst allowance in events at quota_rate (GCRA limit = burst /
  /// quota_rate seconds). Meaningful only with quota_rate > 0.
  double quota_burst = 8.0;
};

/// Scheduled drain: shard `shard` stops accepting placements at simulated
/// time `time`; its jobs re-place at their next planned event. Drained
/// shards never reopen.
struct DrainEvent {
  double time = 0.0;
  std::size_t shard = 0;
};

struct ShardedMonitorConfig {
  /// Straggler percentile (the harness's pct parameter).
  double pct = 90.0;
  /// Shard count (engines). 1 with threads == 1 is the serialized
  /// bit-parity reference.
  std::size_t shards = 1;
  /// Stage workers PER SHARD (ShardEngine threads; 1 = that shard runs
  /// serialized on its driver thread).
  std::size_t threads = 1;
  /// Per-shard admission bound (0 = 4 workers' worth).
  std::size_t max_inflight = 0;
  /// Per-job arrival offsets (null = batch). Drawn once from arrival_seed.
  sched::ArrivalProcess arrivals;
  std::uint64_t arrival_seed = 0;
  /// Placement policy (null = hash_placement()) and its seed.
  PlacementPolicy placement;
  std::uint64_t placement_seed = 0;
  /// Fleet tenants (empty = one unmetered kStandard "default" tenant).
  std::vector<TenantSpec> tenants;
  /// Tenant index per job (empty = every job tenant 0). Values index
  /// `tenants`.
  std::vector<std::size_t> tenant_of;
  /// Modeled per-shard service rate, checkpoint events per simulated
  /// second, for the backlog model that drives shedding and the virtual
  /// latency metrics. 0 = model off (no shedding, no virtual latencies).
  double service_rate = 0.0;
  /// Backlog budget (modeled events queued on one shard) above which
  /// shedding engages. 0 = shedding off. A class q event is shed when the
  /// modeled backlog exceeds budget * (1 + q) — lower classes shed earlier.
  std::size_t shed_budget = 0;
  /// Only QoS classes strictly BELOW this floor are ever shed.
  QoS shed_floor = QoS::kInteractive;
  /// Scheduled shard drains (simulated time).
  std::vector<DrainEvent> drains;
  /// Flag sink; decisions carry shard + tenant. May be null.
  FlagSink sink;
  /// Refit policy applied by the name-based constructor.
  core::RefitPolicy refit = core::RefitPolicy::kIncremental;
};

/// The deterministic admission plan — inspectable before run() (tests and
/// the bench assert against it directly).
struct ShardPlan {
  struct Event {
    double eligible = 0.0;   ///< arrival + τrun: when the event exists
    double admission = 0.0;  ///< eligible + quota deferral
    double virtual_latency = 0.0;  ///< modeled finish - eligible (model on)
    std::uint32_t job = 0;
    std::uint32_t checkpoint = 0;
    std::uint32_t shard = 0;
    std::uint32_t tenant = 0;
    bool shed = false;
    bool deferred = false;  ///< admission > eligible (quota held it)
  };
  /// Every checkpoint event, ascending (admission, job, checkpoint).
  std::vector<Event> events;
  /// Absolute arrival offset per job (the draw fixed_arrivals can replay).
  std::vector<double> arrivals;
  /// Tenant index per job (resolved).
  std::vector<std::size_t> tenant_of;
  /// First-placement shard per job.
  std::vector<std::size_t> home_shard;
  struct Handoff {
    std::uint32_t job = 0;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    /// First checkpoint served by `to`; `from` retired everything below.
    std::uint32_t boundary = 0;
  };
  std::vector<Handoff> handoffs;
  std::size_t shed_events = 0;
  std::size_t deferred_events = 0;
};

/// Per-shard wall-clock stats of one fleet run.
struct ShardStats {
  std::size_t shard = 0;
  std::size_t jobs = 0;  ///< jobs that served ≥ 1 event here
  std::size_t checkpoints = 0;
  std::size_t flags = 0;
  std::size_t shed = 0;
  std::size_t peak_backlog = 0;
  double wall_seconds = 0.0;
  double checkpoints_per_sec = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
};

/// Per-tenant stats: wall-clock latency plus the plan-plane (virtual)
/// metrics the fairness contract is asserted on — virtual numbers are
/// exactly reproducible, wall numbers are not.
struct TenantStats {
  std::string name;
  QoS qos = QoS::kStandard;
  std::size_t jobs = 0;
  std::size_t checkpoints = 0;
  std::size_t deferred = 0;  ///< events the quota held back
  std::size_t shed = 0;
  double max_deferral_s = 0.0;  ///< simulated seconds
  /// Modeled admission→finish latency percentiles (simulated ms; 0 when
  /// the service model is off).
  double p50_virtual_ms = 0.0;
  double p99_virtual_ms = 0.0;
  double p50_latency_ms = 0.0;  ///< wall clock
  double p99_latency_ms = 0.0;
};

/// Outcome of one fleet run.
struct FleetResult {
  /// Per-job records in job input order — with shedding off, bit-identical
  /// to eval::run_method at any shard × thread count.
  std::vector<eval::JobRunResult> runs;
  /// Fleet-wide totals (peak_backlog sums the per-shard peaks; lanes is
  /// shards × threads).
  ServeStats totals;
  std::vector<ShardStats> shards;
  std::vector<TenantStats> tenants;
  std::size_t handoffs = 0;  ///< drain migrations executed
};

/// The fleet frontend. Lifecycle: construct (plan is computed here) →
/// inspect plan() → set_sink() → run() once → FleetResult.
class ShardedMonitor {
 public:
  ShardedMonitor(std::span<const trace::Job> jobs,
                 core::NamedPredictor method, ShardedMonitorConfig config);

  /// Registry convenience: looks up `method` with `registry.refit` forced
  /// to `config.refit`.
  ShardedMonitor(std::span<const trace::Job> jobs, const std::string& method,
                 core::RegistryConfig registry, ShardedMonitorConfig config);

  ~ShardedMonitor();
  ShardedMonitor(const ShardedMonitor&) = delete;
  ShardedMonitor& operator=(const ShardedMonitor&) = delete;

  /// The deterministic admission plan (valid from construction).
  const ShardPlan& plan() const;

  /// Arrival offsets as drawn (== plan().arrivals).
  std::span<const double> arrivals() const;

  /// Installs (or replaces) the flag sink before run().
  void set_sink(FlagSink sink);

  /// Serves the whole plan. Call once.
  FleetResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nurd::serve
