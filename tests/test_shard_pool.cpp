// The sharded serving fleet's four contracts (serve/shard_pool.h):
//   * flag-set identity: shards x workers never changes the per-job records
//     (and the serialized 1x1 fleet is bit-identical to the batch harness),
//     including across a mid-stream drain/rebalance;
//   * placement is deterministic, covers only open shards, and each policy
//     honors its own invariant (hash spread, least-loaded balance, tenant
//     affinity);
//   * per-tenant admission quotas defer ONLY the over-quota tenant — the
//     in-quota tenant's modeled decision latency is unaffected within
//     tolerance — and never change anybody's flags;
//   * load-shedding engages under an over-budget spike, sheds only QoS
//     classes below the floor, never a job's final checkpoint, and sheds
//     the same checkpoints on every rerun.
// Plus the fleet's error path: a stage error on either side of a drain
// handoff is rethrown from run(), which returns without hanging.
#include "serve/shard_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/registry.h"
#include "eval/harness.h"
#include "serve/placement.h"
#include "test_failing_method.h"
#include "trace/generator.h"

namespace nurd::serve {
namespace {

std::vector<trace::Job> generated_jobs(std::size_t count,
                                       std::uint64_t seed = 0) {
  auto config = trace::GoogleLikeGenerator::google_defaults();
  config.min_tasks = 80;
  config.max_tasks = 120;
  config.seed += seed;
  trace::GoogleLikeGenerator gen(config);
  return gen.generate(count);
}

// Both tuned configs, GBT rounds reduced to keep the fits fast in tests.
core::RegistryConfig tuned(bool google) {
  auto config = google ? core::google_tuned() : core::alibaba_tuned();
  config.gbt_rounds = 10;
  return config;
}

void expect_runs_identical(const std::vector<eval::JobRunResult>& a,
                           const std::vector<eval::JobRunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].flagged_at, b[j].flagged_at) << "job " << j;
    ASSERT_EQ(a[j].per_checkpoint.size(), b[j].per_checkpoint.size());
    for (std::size_t t = 0; t < a[j].per_checkpoint.size(); ++t) {
      EXPECT_EQ(a[j].per_checkpoint[t].tp, b[j].per_checkpoint[t].tp);
      EXPECT_EQ(a[j].per_checkpoint[t].fp, b[j].per_checkpoint[t].fp);
      EXPECT_EQ(a[j].per_checkpoint[t].fn, b[j].per_checkpoint[t].fn);
      EXPECT_EQ(a[j].per_checkpoint[t].tn, b[j].per_checkpoint[t].tn);
    }
    EXPECT_EQ(a[j].final.tp, b[j].final.tp);
    EXPECT_EQ(a[j].final.fp, b[j].final.fp);
    EXPECT_EQ(a[j].final.fn, b[j].final.fn);
    EXPECT_EQ(a[j].final.tn, b[j].final.tn);
  }
}

// Records decisions concurrently and reduces them to the canonical flag
// SET — (job, task, checkpoint) — plus per-job order checking.
struct RecordingSink {
  std::mutex mutex;
  std::vector<FlagDecision> decisions;
  std::vector<std::size_t> last_checkpoint;

  explicit RecordingSink(std::size_t jobs) : last_checkpoint(jobs, 0) {}

  FlagSink sink() {
    return [this](const FlagDecision& flag) {
      std::lock_guard<std::mutex> lock(mutex);
      EXPECT_GE(flag.checkpoint, last_checkpoint[flag.job]);
      last_checkpoint[flag.job] = flag.checkpoint;
      decisions.push_back(flag);
    };
  }

  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> flag_set() {
    std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> out;
    out.reserve(decisions.size());
    for (const auto& d : decisions) {
      out.emplace_back(d.job, d.task, d.checkpoint);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST(ShardedMonitor, SerializedFleetIsBitIdenticalToRunMethod) {
  const auto jobs = generated_jobs(4);
  const auto method = core::predictor_by_name("GBTR", tuned(true));
  const auto reference = eval::run_method(method, jobs);

  ShardedMonitorConfig config;
  config.shards = 1;
  config.threads = 1;
  ShardedMonitor fleet(jobs, method, config);
  const auto served = fleet.run();

  expect_runs_identical(served.runs, reference);
  EXPECT_EQ(served.totals.jobs, jobs.size());
}

// The headline acceptance pin: identical per-job records AND flag set at
// shards in {1, 2, 4} x workers in {1, 4}, for both tuned configs, under
// Poisson arrivals and least-loaded placement (the policy with the most
// plan-state coupling — if determinism broke anywhere it would break here).
TEST(ShardedMonitor, FlagSetIdenticalAcrossShardAndWorkerGrid) {
  const auto jobs = generated_jobs(6);
  for (const bool google : {true, false}) {
    SCOPED_TRACE(google ? "google_tuned" : "alibaba_tuned");
    const auto method = core::predictor_by_name("GBTR", tuned(google));
    const auto reference = eval::run_method(method, jobs);

    std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> flags0;
    bool first = true;
    for (const std::size_t shards : {1u, 2u, 4u}) {
      for (const std::size_t workers : {1u, 4u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " workers=" + std::to_string(workers));
        ShardedMonitorConfig config;
        config.shards = shards;
        config.threads = workers;
        config.arrivals = sched::poisson_arrivals(3.0);
        config.arrival_seed = 7;
        config.placement = least_loaded_placement();
        RecordingSink sink(jobs.size());
        config.sink = sink.sink();
        ShardedMonitor fleet(jobs, method, config);
        const auto served = fleet.run();

        expect_runs_identical(served.runs, reference);
        if (first) {
          flags0 = sink.flag_set();
          first = false;
        } else {
          EXPECT_EQ(sink.flag_set(), flags0);
        }
        EXPECT_EQ(served.totals.lanes, shards * workers);
      }
    }
  }
}

// Kill-style drain: shard 0 drains mid-stream, its jobs re-place and resume
// on open shards, and the final records and flag set are bit-identical to
// the undrained run. The drain time lands inside the event stream so real
// handoffs happen (asserted), and the grid covers serialized and
// concurrent execution on the receiving side.
TEST(ShardedMonitor, DrainRebalanceKeepsFlagSetBitIdentical) {
  const auto jobs = generated_jobs(6, 1);
  const auto method = core::predictor_by_name("GBTR", tuned(true));
  const auto reference = eval::run_method(method, jobs);

  auto base_config = [&] {
    ShardedMonitorConfig config;
    config.threads = 1;
    config.arrivals = sched::poisson_arrivals(3.0);
    config.arrival_seed = 11;
    config.placement = least_loaded_placement();
    return config;
  };

  // The drain must interrupt at least one job: pick the midpoint of the
  // planned admission window from an undrained plan.
  double mid = 0.0;
  {
    auto config = base_config();
    config.shards = 2;
    ShardedMonitor probe(jobs, method, config);
    const auto& events = probe.plan().events;
    ASSERT_FALSE(events.empty());
    mid = events[events.size() / 2].admission;
  }

  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      auto config = base_config();
      config.shards = shards;
      config.threads = workers;
      config.drains = {{mid, 0}};
      RecordingSink sink(jobs.size());
      config.sink = sink.sink();
      ShardedMonitor fleet(jobs, method, config);
      EXPECT_GT(fleet.plan().handoffs.size(), 0u);
      for (const auto& h : fleet.plan().handoffs) {
        EXPECT_EQ(h.from, 0u);  // only the drained shard loses jobs
        EXPECT_NE(h.to, 0u);    // and it never receives any
      }
      const auto served = fleet.run();
      EXPECT_EQ(served.handoffs, fleet.plan().handoffs.size());
      expect_runs_identical(served.runs, reference);
      // After the drain time, no event runs on the drained shard.
      for (const auto& e : fleet.plan().events) {
        if (e.admission >= mid) {
          EXPECT_NE(e.shard, 0u);
        }
      }
    }
  }
}

// The fleet's error path across a drain handoff, at 2 shards x 2 workers:
// the migrating job's predictor throws either on the drained source shard
// (just below the boundary — the receiving engine is then blocked in its
// handoff wait, which the fleet abort must release) or on the receiving
// shard (at the boundary). Either way run() rethrows the stage error, and
// returning at all means every engine's run() drained its in-flight events
// and the handoff wait was released.
TEST(ShardedMonitor, StageErrorAcrossDrainHandoffIsRethrown) {
  const auto jobs = generated_jobs(6, 1);
  const auto method = core::predictor_by_name("GBTR", tuned(true));

  auto base_config = [&] {
    ShardedMonitorConfig config;
    config.shards = 2;
    config.threads = 2;
    config.arrivals = sched::poisson_arrivals(3.0);
    config.arrival_seed = 11;
    config.placement = least_loaded_placement();
    return config;
  };
  double mid = 0.0;
  {
    ShardedMonitor probe(jobs, method, base_config());
    const auto& events = probe.plan().events;
    ASSERT_FALSE(events.empty());
    mid = events[events.size() / 2].admission;
  }
  auto config = base_config();
  config.drains = {{mid, 0}};
  ShardPlan::Handoff handoff;
  {
    ShardedMonitor probe(jobs, method, config);
    ASSERT_FALSE(probe.plan().handoffs.empty());
    handoff = probe.plan().handoffs.front();
  }
  ASSERT_GT(handoff.boundary, 0u);

  for (const std::size_t fail_at : {handoff.boundary - 1, handoff.boundary}) {
    SCOPED_TRACE(fail_at < handoff.boundary ? "source shard fails"
                                            : "receiving shard fails");
    ShardedMonitor fleet(
        jobs, failing_method(method, jobs[handoff.job].id, fail_at), config);
    // The plan does not depend on the method, so the handoff is the same.
    ASSERT_FALSE(fleet.plan().handoffs.empty());
    ASSERT_EQ(fleet.plan().handoffs.front().job, handoff.job);
    ASSERT_EQ(fleet.plan().handoffs.front().boundary, handoff.boundary);
    expect_injected_failure([&] { fleet.run(); });
  }
}

TEST(Placement, PoliciesAreDeterministicAndRespectOpenShards) {
  const auto jobs = generated_jobs(8);
  const auto method = core::predictor_by_name("HBOS", tuned(true));
  const std::vector<std::size_t> tenant_of = {0, 1, 0, 1, 0, 1, 0, 1};

  for (const auto* name : {"hash", "least-loaded", "affinity"}) {
    SCOPED_TRACE(name);
    auto make_plan = [&] {
      ShardedMonitorConfig config;
      config.shards = 4;
      config.arrivals = sched::poisson_arrivals(5.0);
      config.arrival_seed = 3;
      config.placement = placement_by_name(name);
      config.placement_seed = 99;
      config.tenants = {TenantSpec{"a", QoS::kStandard, 0.0, 8.0},
                       TenantSpec{"b", QoS::kStandard, 0.0, 8.0}};
      config.tenant_of = tenant_of;
      return ShardedMonitor(jobs, method, config);
    };
    ShardedMonitor fleet1 = make_plan();
    ShardedMonitor fleet2 = make_plan();
    ASSERT_EQ(fleet1.plan().home_shard, fleet2.plan().home_shard);
    for (const std::size_t s : fleet1.plan().home_shard) {
      EXPECT_LT(s, 4u);
    }
    if (std::string(name) == "affinity") {
      // Every job of a tenant lands on that tenant's shard.
      std::vector<std::size_t> tenant_shard(2, SIZE_MAX);
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const std::size_t t = tenant_of[j];
        if (tenant_shard[t] == SIZE_MAX) {
          tenant_shard[t] = fleet1.plan().home_shard[j];
        }
        EXPECT_EQ(fleet1.plan().home_shard[j], tenant_shard[t]);
      }
    }
    if (std::string(name) == "least-loaded") {
      // Eight same-size jobs over four shards balance two per shard.
      std::vector<std::size_t> count(4, 0);
      for (const std::size_t s : fleet1.plan().home_shard) ++count[s];
      EXPECT_EQ(*std::max_element(count.begin(), count.end()), 2u);
    }
  }
}

// The multi-tenant fairness regression test: tenant "spike" floods the
// fleet while tenant "steady" stays in quota. With the quota enforced, the
// spike tenant queues behind its own budget (deferrals > 0) and the steady
// tenant's modeled p99 decision latency stays within tolerance of its
// latency in an unloaded fleet; with the quota removed, the flood drives
// the steady tenant's p99 far past it. Everything asserted lives in the
// plan plane (simulated time), so the numbers are exactly reproducible.
TEST(ShardedMonitor, QuotaShieldsInQuotaTenantFromOverQuotaFlood) {
  const auto steady_jobs = generated_jobs(3, 2);
  const auto flood_jobs = generated_jobs(9, 3);
  std::vector<trace::Job> jobs;
  for (const auto& j : steady_jobs) jobs.push_back(j);
  for (const auto& j : flood_jobs) jobs.push_back(j);
  const auto method = core::predictor_by_name("HBOS", tuned(true));

  auto run_plan = [&](double spike_quota_rate) {
    ShardedMonitorConfig config;
    config.shards = 2;
    config.arrivals = sched::poisson_arrivals(50.0);
    config.arrival_seed = 5;
    config.tenants = {
        TenantSpec{"steady", QoS::kInteractive, 0.0, 8.0},
        TenantSpec{"spike", QoS::kBatch, spike_quota_rate, 4.0}};
    std::vector<std::size_t> tenant_of(jobs.size(), 1);
    for (std::size_t j = 0; j < steady_jobs.size(); ++j) tenant_of[j] = 0;
    config.tenant_of = tenant_of;
    // Trace checkpoints land over tens of thousands of simulated seconds,
    // so the modeled rates live on that scale: capacity 0.05 events/s per
    // shard, and the spike tenant's burst outruns its 0.01 events/s quota.
    config.service_rate = 0.05;
    return ShardedMonitor(jobs, method, config);
  };

  ShardedMonitor with_quota = run_plan(0.01);
  ShardedMonitor without_quota = run_plan(0.0);
  const auto quota_result = with_quota.run();
  const auto flood_result = without_quota.run();
  const auto& quota_stats = quota_result.tenants;
  const auto& flood_stats = flood_result.tenants;

  // The over-quota tenant queues behind its own budget...
  EXPECT_GT(quota_stats[1].deferred, 0u);
  EXPECT_GT(quota_stats[1].max_deferral_s, 0.0);
  // ...the in-quota tenant is never deferred...
  EXPECT_EQ(quota_stats[0].deferred, 0u);
  EXPECT_EQ(quota_stats[0].max_deferral_s, 0.0);
  // ...and its modeled p99 is shielded: within 3x of the clamped-flood
  // fleet is fine, while the unmetered flood blows it out by an order of
  // magnitude.
  EXPECT_GT(flood_stats[0].p99_virtual_ms,
            3.0 * quota_stats[0].p99_virtual_ms);

  // Quotas shift admission times, never decisions: identical records.
  expect_runs_identical(quota_result.runs, flood_result.runs);
}

// Load-shedding under an over-budget Poisson spike: sheds engage, hit only
// QoS classes below the floor, spare every job's final checkpoint, and the
// shed set is identical across reruns. Shed checkpoints still produce a
// confusion record (carried forward), so per-job records stay complete.
TEST(ShardedMonitor, SheddingIsTieredDeterministicAndSparesFinals) {
  const auto batch_jobs = generated_jobs(8, 4);
  const auto inter_jobs = generated_jobs(2, 5);
  std::vector<trace::Job> jobs;
  for (const auto& j : batch_jobs) jobs.push_back(j);
  for (const auto& j : inter_jobs) jobs.push_back(j);
  const auto method = core::predictor_by_name("HBOS", tuned(true));

  auto make = [&] {
    ShardedMonitorConfig config;
    config.shards = 2;
    // The spike compresses every arrival into the first 100 simulated
    // seconds — far over the 0.02 events/s per-shard modeled capacity.
    config.arrivals = sched::poisson_spike_arrivals(0.02, 4.0, 0.0, 100.0);
    config.arrival_seed = 13;
    config.tenants = {TenantSpec{"batch", QoS::kBatch, 0.0, 8.0},
                      TenantSpec{"interactive", QoS::kInteractive, 0.0, 8.0}};
    std::vector<std::size_t> tenant_of(jobs.size(), 0);
    for (std::size_t j = batch_jobs.size(); j < jobs.size(); ++j) {
      tenant_of[j] = 1;
    }
    config.tenant_of = tenant_of;
    config.service_rate = 0.02;
    config.shed_budget = 4;
    config.shed_floor = QoS::kInteractive;
    return ShardedMonitor(jobs, method, config);
  };

  ShardedMonitor fleet = make();
  const auto& plan = fleet.plan();
  EXPECT_GT(plan.shed_events, 0u);
  for (const auto& e : plan.events) {
    if (!e.shed) continue;
    EXPECT_EQ(e.tenant, 0u);  // only the batch tenant sheds
    EXPECT_LT(e.checkpoint + 1, jobs[e.job].checkpoint_count());
  }

  // Deterministic across reruns: the same checkpoints shed.
  ShardedMonitor rerun = make();
  ASSERT_EQ(rerun.plan().events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(rerun.plan().events[i].shed, plan.events[i].shed);
  }

  const auto served = fleet.run();
  std::size_t executed_shed = 0;
  for (const auto& s : served.shards) executed_shed += s.shed;
  EXPECT_EQ(executed_shed, plan.shed_events);
  EXPECT_EQ(served.tenants[1].shed, 0u);
  EXPECT_EQ(served.tenants[0].shed, plan.shed_events);
  // Records stay complete: every checkpoint has a confusion row and the
  // final row is populated.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(served.runs[j].per_checkpoint.size(),
              jobs[j].checkpoint_count());
  }
}

// Fleet stats account for every planned event exactly once, at any shape.
TEST(ShardedMonitor, StatsCoverEveryCheckpoint) {
  const auto jobs = generated_jobs(5, 6);
  const auto method = core::predictor_by_name("HBOS", tuned(true));
  std::size_t total = 0;
  for (const auto& j : jobs) total += j.checkpoint_count();

  ShardedMonitorConfig config;
  config.shards = 3;
  config.threads = 2;
  config.arrivals = sched::poisson_arrivals(4.0);
  ShardedMonitor fleet(jobs, method, config);
  const auto served = fleet.run();

  EXPECT_EQ(served.totals.checkpoints, total);
  std::size_t per_shard = 0;
  std::size_t shard_jobs = 0;
  for (const auto& s : served.shards) {
    per_shard += s.checkpoints;
    shard_jobs += s.jobs;
  }
  EXPECT_EQ(per_shard, total);
  EXPECT_GE(shard_jobs, jobs.size());  // drains could only add re-serves
  std::size_t tenant_ckpts = 0;
  for (const auto& t : served.tenants) tenant_ckpts += t.checkpoints;
  EXPECT_EQ(tenant_ckpts, total);
}

TEST(ShardedMonitor, RunTwiceThrows) {
  const auto jobs = generated_jobs(2, 7);
  const auto method = core::predictor_by_name("HBOS", tuned(true));
  ShardedMonitorConfig config;
  ShardedMonitor fleet(jobs, method, config);
  fleet.run();
  EXPECT_THROW(fleet.run(), std::invalid_argument);
}

}  // namespace
}  // namespace nurd::serve
