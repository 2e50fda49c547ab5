#include "serve/shard_pool.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/sync.h"
#include "serve/shard_engine.h"

namespace nurd::serve {

namespace {

constexpr std::size_t kUnplaced = std::numeric_limits<std::size_t>::max();

/// A shed event still flows through the pipeline (cursor advances, confusion
/// carries forward), so it is not free — model it at a quarter of a full
/// service.
constexpr double kShedCostFactor = 0.25;

}  // namespace

struct ShardedMonitor::Impl {
  Impl(std::span<const trace::Job> jobs, core::NamedPredictor method,
       ShardedMonitorConfig config)
      : jobs_(jobs), method_(std::move(method)), config_(std::move(config)) {
    NURD_CHECK(!jobs.empty(), "no jobs to serve");
    NURD_CHECK(method_.make != nullptr, "method has no factory");
    NURD_CHECK(config_.shards >= 1, "need at least one shard");
    if (config_.tenants.empty()) config_.tenants.push_back(TenantSpec{});
    for (const TenantSpec& t : config_.tenants) {
      NURD_CHECK(t.quota_rate >= 0.0 && t.quota_burst > 0.0,
                 "tenant quota must be non-negative with a positive burst");
    }
    if (config_.tenant_of.empty()) {
      config_.tenant_of.assign(jobs.size(), 0);
    }
    NURD_CHECK(config_.tenant_of.size() == jobs.size(),
               "tenant_of must map every job");
    for (const std::size_t t : config_.tenant_of) {
      NURD_CHECK(t < config_.tenants.size(), "tenant_of index out of range");
    }
    NURD_CHECK(config_.drains.size() < config_.shards,
               "cannot drain every shard");
    {
      std::vector<std::uint8_t> seen(config_.shards, 0);
      for (const DrainEvent& d : config_.drains) {
        NURD_CHECK(d.shard < config_.shards, "drain shard out of range");
        NURD_CHECK(!seen[d.shard], "shard drained twice");
        seen[d.shard] = 1;
      }
    }
    if (!config_.placement) config_.placement = hash_placement();
    NURD_CHECK(config_.shed_budget == 0 || config_.service_rate > 0.0,
               "load-shedding needs the service model (service_rate > 0)");
    build_plan();
  }

  // ---- the plan plane ------------------------------------------------------
  // Everything here runs in simulated time at construction, single-threaded:
  // the plan is a pure function of (jobs, arrival process, seeds, config).
  void build_plan() {
    // 1. Arrival draw — same protocol as StreamMonitor: one draw, own seed.
    Rng rng(config_.arrival_seed);
    plan_.arrivals = config_.arrivals
                         ? config_.arrivals(jobs_.size(), rng)
                         : sched::batch_arrivals()(jobs_.size(), rng);
    NURD_CHECK(plan_.arrivals.size() == jobs_.size(),
               "arrival process returned wrong count");
    plan_.tenant_of = config_.tenant_of;

    // 2. Eligible events, ascending (eligible, job, checkpoint).
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      NURD_CHECK(plan_.arrivals[j] >= 0.0, "negative arrival time");
      for (std::size_t t = 0; t < jobs_[j].checkpoint_count(); ++t) {
        ShardPlan::Event e;
        e.eligible = plan_.arrivals[j] + jobs_[j].trace.tau_run(t);
        e.admission = e.eligible;
        e.job = static_cast<std::uint32_t>(j);
        e.checkpoint = static_cast<std::uint32_t>(t);
        e.tenant = static_cast<std::uint32_t>(config_.tenant_of[j]);
        plan_.events.push_back(e);
      }
    }
    auto by_eligible = [](const ShardPlan::Event& a,
                          const ShardPlan::Event& b) {
      return std::tie(a.eligible, a.job, a.checkpoint) <
             std::tie(b.eligible, b.job, b.checkpoint);
    };
    std::sort(plan_.events.begin(), plan_.events.end(), by_eligible);

    // 3. Per-tenant admission quotas: the GCRA token bucket in simulated
    // time. Emission interval I = 1/rate, limit L = burst * I; an event
    // conforming at its eligible time admits immediately, otherwise it
    // queues behind ITS OWN tenant's budget until the bucket conforms.
    // Other tenants' admissions are untouched — that is the whole fairness
    // mechanism. Per-tenant theoretical-arrival times are monotone, so a
    // job's admission order equals its checkpoint order and flags cannot
    // change.
    {
      std::vector<double> tat(config_.tenants.size(), 0.0);
      for (ShardPlan::Event& e : plan_.events) {
        const TenantSpec& spec = config_.tenants[e.tenant];
        if (spec.quota_rate <= 0.0) continue;
        const double interval = 1.0 / spec.quota_rate;
        const double limit = spec.quota_burst * interval;
        double& t = tat[e.tenant];
        const double earliest = t - limit;
        e.admission = std::max(e.eligible, earliest);
        e.deferred = e.admission > e.eligible;
        if (e.deferred) ++plan_.deferred_events;
        t = std::max(t, e.admission) + interval;
      }
    }
    auto by_admission = [](const ShardPlan::Event& a,
                           const ShardPlan::Event& b) {
      return std::tie(a.admission, a.job, a.checkpoint) <
             std::tie(b.admission, b.job, b.checkpoint);
    };
    std::sort(plan_.events.begin(), plan_.events.end(), by_admission);

    // 4. One admission-ordered sweep: drains open/close shards, placement
    // picks a home at each job's first event (and again when its shard has
    // drained — the rebalance), the per-shard FCFS service model tracks a
    // modeled backlog, and shedding marks over-budget events of QoS classes
    // below the floor. Marks are planned strictly pre-admission: an event
    // already admitted is never shed retroactively, and a job's final
    // checkpoint is never shed (the final confusion record must see the
    // full stream).
    auto drains = config_.drains;
    std::sort(drains.begin(), drains.end(),
              [](const DrainEvent& a, const DrainEvent& b) {
                return std::tie(a.time, a.shard) < std::tie(b.time, b.shard);
              });
    std::size_t next_drain = 0;
    std::vector<std::uint8_t> open(config_.shards, 1);
    std::vector<std::uint64_t> load(config_.shards, 0);
    std::vector<std::size_t> job_shard(jobs_.size(), kUnplaced);
    plan_.home_shard.assign(jobs_.size(), kUnplaced);
    std::vector<double> last_finish(config_.shards, 0.0);
    std::vector<std::deque<double>> queue(config_.shards);
    const bool model = config_.service_rate > 0.0;

    for (ShardPlan::Event& e : plan_.events) {
      while (next_drain < drains.size() &&
             drains[next_drain].time <= e.admission) {
        open[drains[next_drain].shard] = 0;
        ++next_drain;
      }
      const std::size_t remaining =
          jobs_[e.job].checkpoint_count() - e.checkpoint;
      auto place = [&]() {
        PlacementContext ctx;
        ctx.job = e.job;
        ctx.tenant = e.tenant;
        ctx.time = e.admission;
        ctx.checkpoints = remaining;
        ctx.seed = config_.placement_seed;
        ctx.shard_load = load;
        ctx.shard_open = open;
        const std::size_t s = config_.placement(ctx);
        NURD_CHECK(s < config_.shards && open[s],
                   "placement chose a closed or out-of-range shard");
        return s;
      };
      if (job_shard[e.job] == kUnplaced) {
        const std::size_t s = place();
        job_shard[e.job] = s;
        plan_.home_shard[e.job] = s;
        load[s] += remaining;
      } else if (!open[job_shard[e.job]]) {
        // The job's shard drained: re-place at this checkpoint boundary.
        const auto from = static_cast<std::uint32_t>(job_shard[e.job]);
        load[from] -= remaining;
        const std::size_t to = place();
        load[to] += remaining;
        job_shard[e.job] = to;
        plan_.handoffs.push_back({e.job, from, static_cast<std::uint32_t>(to),
                                  e.checkpoint});
      }
      e.shard = static_cast<std::uint32_t>(job_shard[e.job]);

      if (model) {
        auto& q = queue[e.shard];
        while (!q.empty() && q.front() <= e.admission) q.pop_front();
        const std::size_t backlog = q.size();
        if (config_.shed_budget > 0) {
          const auto qos = static_cast<std::size_t>(
              config_.tenants[e.tenant].qos);
          const bool sheddable =
              qos < static_cast<std::size_t>(config_.shed_floor) &&
              e.checkpoint + 1 != jobs_[e.job].checkpoint_count();
          if (sheddable && backlog > config_.shed_budget * (1 + qos)) {
            e.shed = true;
            ++plan_.shed_events;
          }
        }
        const double cost =
            (e.shed ? kShedCostFactor : 1.0) / config_.service_rate;
        const double begin = std::max(e.admission, last_finish[e.shard]);
        const double finish = begin + cost;
        last_finish[e.shard] = finish;
        q.push_back(finish);
        e.virtual_latency = finish - e.eligible;
      }
    }
  }

  // ---- the execution plane -------------------------------------------------

  // Handoff handshake state. ShardedMonitor::mutex_ is a leaf: taken by
  // engine callbacks that hold no engine lock, and nothing is called while
  // it is held (see common/sync.h).
  bool wait_handoff(std::size_t job, std::size_t boundary)
      NURD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (retired_through_[job] < boundary && !abort_) cv_.wait(mutex_);
    return !abort_;
  }

  void note_retired(std::size_t job, std::size_t ckpt)
      NURD_EXCLUDES(mutex_) {
    if (!handoff_job_[job]) return;  // nobody will ever wait on this job
    MutexLock lock(mutex_);
    retired_through_[job] = std::max(retired_through_[job], ckpt + 1);
    cv_.notify_all();
  }

  FleetResult run() NURD_EXCLUDES(mutex_) {
    NURD_CHECK(!ran_, "ShardedMonitor::run() called twice");
    ran_ = true;

    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t workers =
        config_.threads == 0 ? std::max(1u, hw) : config_.threads;

    // Fleet-wide sessions: a job's session survives handoffs — the
    // receiving engine resumes the same OnlineJobRun where the source
    // stopped.
    sessions_.resize(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      sessions_[j].predictor = method_.make();
      sessions_[j].run.emplace(jobs_[j], *sessions_[j].predictor,
                               config_.pct);
    }

    // Slice the plan per shard, in plan (admission) order. A job whose
    // shard changes mid-list carries a wait boundary on its first event at
    // the new shard — the receiving engine blocks there until the source
    // retired everything below. Deadlock-freedom: handoffs only originate
    // from DRAINED shards, drained shards never reopen (so never receive),
    // and two shards cannot both have drained before handing to each other
    // — the wait graph follows drain times and is acyclic.
    handoff_job_.assign(jobs_.size(), 0);
    for (const ShardPlan::Handoff& h : plan_.handoffs) {
      handoff_job_[h.job] = 1;
    }
    {
      MutexLock lock(mutex_);  // preamble, but the field is lock-annotated
      retired_through_.assign(jobs_.size(), 0);
    }
    std::vector<std::vector<EngineEvent>> slices(config_.shards);
    {
      std::vector<std::size_t> prev_shard(jobs_.size(), kUnplaced);
      for (const ShardPlan::Event& e : plan_.events) {
        EngineEvent ev;
        ev.time = e.admission;
        ev.job = e.job;
        ev.checkpoint = e.checkpoint;
        ev.shed = e.shed;
        ev.wait_boundary =
            (prev_shard[e.job] != kUnplaced && prev_shard[e.job] != e.shard)
                ? e.checkpoint
                : kNoHandoff;
        prev_shard[e.job] = e.shard;
        slices[e.shard].push_back(ev);
      }
    }

    EngineConfig engine_config;
    engine_config.threads = workers;
    engine_config.max_inflight = config_.max_inflight;

    std::vector<std::unique_ptr<ShardEngine>> engines;
    engines.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
      EngineHooks hooks;
      if (config_.sink) {
        hooks.sink = [this, s](const FlagDecision& d) {
          FlagDecision out = d;
          out.shard = s;
          out.tenant = plan_.tenant_of[d.job];
          config_.sink(out);
        };
      }
      hooks.wait_handoff = [this](std::size_t job, std::size_t boundary) {
        return wait_handoff(job, boundary);
      };
      hooks.retired = [this](std::size_t job, std::size_t ckpt) {
        note_retired(job, ckpt);
      };
      engines.push_back(std::make_unique<ShardEngine>(
          jobs_, std::span<JobSession>(sessions_), std::move(slices[s]),
          engine_config, std::move(hooks)));
    }

    // One driver thread per shard. A failing engine records the first error
    // and aborts every pending handoff wait; surviving engines finish their
    // own slices, then run() rethrows.
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> drivers;
    drivers.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
      drivers.emplace_back([this, &engines, s] {
        try {
          engines[s]->run();
        } catch (...) {
          MutexLock lock(mutex_);
          if (!error_) error_ = std::current_exception();
          abort_ = true;
          cv_.notify_all();
        }
      });
    }
    for (auto& d : drivers) d.join();
    {
      MutexLock lock(mutex_);
      if (error_) std::rethrow_exception(error_);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    return assemble(engines, workers, wall);
  }

  FleetResult assemble(
      const std::vector<std::unique_ptr<ShardEngine>>& engines,
      std::size_t workers, double wall) {
    FleetResult result;
    result.runs.reserve(jobs_.size());
    for (auto& session : sessions_) {
      result.runs.push_back(session.run->take_result());
    }
    result.handoffs = plan_.handoffs.size();

    // Per-shard jobs-served counts come from the plan (distinct jobs with
    // ≥ 1 event on the shard).
    std::vector<std::vector<std::uint8_t>> served(
        config_.shards, std::vector<std::uint8_t>(jobs_.size(), 0));
    for (const ShardPlan::Event& e : plan_.events) {
      served[e.shard][e.job] = 1;
    }

    std::vector<double> all_latencies;
    std::vector<std::vector<double>> tenant_latencies(
        config_.tenants.size());
    for (std::size_t s = 0; s < config_.shards; ++s) {
      const EngineStats& es = engines[s]->stats();
      ShardStats stats;
      stats.shard = s;
      stats.jobs = static_cast<std::size_t>(
          std::count(served[s].begin(), served[s].end(), 1));
      stats.checkpoints = es.processed;
      stats.flags = es.flags;
      stats.shed = es.shed;
      stats.peak_backlog = es.peak_backlog;
      stats.wall_seconds = es.wall_seconds;
      stats.checkpoints_per_sec =
          es.wall_seconds > 0.0
              ? static_cast<double>(es.processed) / es.wall_seconds
              : 0.0;
      std::vector<double> shard_lat;
      shard_lat.reserve(es.latencies.size());
      for (const auto& l : es.latencies) {
        shard_lat.push_back(l.seconds);
        all_latencies.push_back(l.seconds);
        tenant_latencies[plan_.tenant_of[l.job]].push_back(l.seconds);
      }
      std::sort(shard_lat.begin(), shard_lat.end());
      stats.p50_latency_ms = percentile_ms(shard_lat, 0.50);
      stats.p99_latency_ms = percentile_ms(shard_lat, 0.99);
      result.shards.push_back(stats);

      result.totals.checkpoints += es.processed;
      result.totals.flags += es.flags;
      result.totals.peak_backlog += es.peak_backlog;
      for (std::size_t i = 0; i < es.stage_seconds.size(); ++i) {
        result.totals.stage_seconds[i] += es.stage_seconds[i];
      }
    }
    result.totals.jobs = jobs_.size();
    result.totals.lanes = config_.shards * workers;
    result.totals.wall_seconds = wall;
    result.totals.checkpoints_per_sec =
        wall > 0.0 ? static_cast<double>(result.totals.checkpoints) / wall
                   : 0.0;
    std::sort(all_latencies.begin(), all_latencies.end());
    result.totals.p50_latency_ms = percentile_ms(all_latencies, 0.50);
    result.totals.p99_latency_ms = percentile_ms(all_latencies, 0.99);

    // Tenant stats: plan-plane metrics (deferrals, sheds, virtual
    // latencies) are exactly reproducible; wall percentiles are not.
    std::vector<std::vector<double>> tenant_virtual(config_.tenants.size());
    std::vector<std::vector<std::uint8_t>> tenant_jobs(
        config_.tenants.size(),
        std::vector<std::uint8_t>(jobs_.size(), 0));
    result.tenants.resize(config_.tenants.size());
    for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
      result.tenants[t].name = config_.tenants[t].name;
      result.tenants[t].qos = config_.tenants[t].qos;
    }
    for (const ShardPlan::Event& e : plan_.events) {
      TenantStats& ts = result.tenants[e.tenant];
      ++ts.checkpoints;
      tenant_jobs[e.tenant][e.job] = 1;
      if (e.deferred) {
        ++ts.deferred;
        ts.max_deferral_s =
            std::max(ts.max_deferral_s, e.admission - e.eligible);
      }
      if (e.shed) ++ts.shed;
      if (config_.service_rate > 0.0) {
        tenant_virtual[e.tenant].push_back(e.virtual_latency);
      }
    }
    for (std::size_t t = 0; t < config_.tenants.size(); ++t) {
      TenantStats& ts = result.tenants[t];
      ts.jobs = static_cast<std::size_t>(std::count(
          tenant_jobs[t].begin(), tenant_jobs[t].end(), 1));
      auto& virt = tenant_virtual[t];
      std::sort(virt.begin(), virt.end());
      ts.p50_virtual_ms = percentile_ms(virt, 0.50);
      ts.p99_virtual_ms = percentile_ms(virt, 0.99);
      auto& lat = tenant_latencies[t];
      std::sort(lat.begin(), lat.end());
      ts.p50_latency_ms = percentile_ms(lat, 0.50);
      ts.p99_latency_ms = percentile_ms(lat, 0.99);
    }
    return result;
  }

  // ---- owner state (plan plane + construction): written before any driver
  // thread exists.
  std::span<const trace::Job> jobs_;
  core::NamedPredictor method_;
  ShardedMonitorConfig config_;
  ShardPlan plan_;
  std::vector<JobSession> sessions_;
  /// 1 where the job appears in some handoff (only those need cv wakeups).
  std::vector<std::uint8_t> handoff_job_;
  bool ran_ = false;

  // ---- handoff handshake (the only cross-engine synchronization).
  mutable Mutex mutex_;
  CondVar cv_;
  /// Per job: every checkpoint below this retired on its serving engine.
  std::vector<std::size_t> retired_through_ NURD_GUARDED_BY(mutex_);
  bool abort_ NURD_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ NURD_GUARDED_BY(mutex_);
};

ShardedMonitor::ShardedMonitor(std::span<const trace::Job> jobs,
                               core::NamedPredictor method,
                               ShardedMonitorConfig config)
    : impl_(std::make_unique<Impl>(jobs, std::move(method),
                                   std::move(config))) {}

ShardedMonitor::ShardedMonitor(std::span<const trace::Job> jobs,
                               const std::string& method,
                               core::RegistryConfig registry,
                               ShardedMonitorConfig config) {
  registry.refit = config.refit;
  impl_ = std::make_unique<Impl>(
      jobs, core::predictor_by_name(method, registry), std::move(config));
}

ShardedMonitor::~ShardedMonitor() = default;

const ShardPlan& ShardedMonitor::plan() const { return impl_->plan_; }

std::span<const double> ShardedMonitor::arrivals() const {
  return impl_->plan_.arrivals;
}

void ShardedMonitor::set_sink(FlagSink sink) {
  NURD_CHECK(!impl_->ran_, "set_sink after run()");
  impl_->config_.sink = std::move(sink);
}

FleetResult ShardedMonitor::run() { return impl_->run(); }

}  // namespace nurd::serve
