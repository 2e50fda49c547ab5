// The serving layer's three contracts (stream_monitor.h):
//   * serialized serving is bit-identical to the batch harness;
//   * any worker count produces the same per-job records and flag set;
//   * the live cluster feed is a deterministic function of the flag set,
//     identical to posting the same flags up front.
// Plus the engine's error path: a stage error is rethrown after the drain.
#include "serve/stream_monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <tuple>
#include <vector>

#include "core/registry.h"
#include "eval/harness.h"
#include "serve/cluster_sink.h"
#include "serve/shard_engine.h"
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

core::NamedPredictor method_by_name(const std::string& name) {
  auto config = core::google_tuned();
  config.gbt_rounds = 10;  // keep the GBT-backed methods fast in tests
  return core::predictor_by_name(name, config);
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

// A sink that records every decision and checks the per-job ordering
// guarantee (a job's flags arrive in nondecreasing checkpoint order).
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

  // (job, task, checkpoint) triples in canonical order — the flag SET.
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

TEST(StreamMonitor, SerializedIsBitIdenticalToRunMethod) {
  const auto jobs = generated_jobs(4);
  // An outlier detector, the privileged method, and a warm-started learner —
  // three very different predictor lifecycles through the same lane code.
  for (const auto* name : {"HBOS", "Wrangler", "GBTR"}) {
    const auto method = method_by_name(name);
    const auto reference = eval::run_method(method, jobs);

    StreamMonitorConfig config;
    config.threads = 1;
    StreamMonitor monitor(jobs, method, config);
    const auto served = monitor.run();

    SCOPED_TRACE(name);
    expect_runs_identical(served.runs, reference);
    EXPECT_EQ(served.stats.jobs, jobs.size());
  }
}

// The acceptance pin: ordering (RecordingSink asserts per-job checkpoint
// order on every delivery) and determinism (records + flag set) at 1, 4 and
// 16 workers, for a monolithic method and a staged, warm-started one.
TEST(StreamMonitor, WorkerCountDoesNotChangeRunsOrFlagSet) {
  const auto jobs = generated_jobs(6, /*seed=*/3);
  for (const auto* name : {"HBOS", "GBTR"}) {
    SCOPED_TRACE(name);
    const auto method = method_by_name(name);

    StreamMonitorConfig serial;
    serial.threads = 1;
    RecordingSink serial_sink(jobs.size());
    serial.sink = serial_sink.sink();
    const auto reference = StreamMonitor(jobs, method, serial).run();

    for (std::size_t threads : {4u, 16u}) {
      StreamMonitorConfig config;
      config.threads = threads;
      RecordingSink sink(jobs.size());
      config.sink = sink.sink();
      StreamMonitor monitor(jobs, method, config);
      const auto served = monitor.run();

      expect_runs_identical(served.runs, reference.runs);
      EXPECT_EQ(sink.flag_set(), serial_sink.flag_set())
          << "flag set drifted at " << threads << " workers";
      EXPECT_EQ(served.stats.checkpoints, reference.stats.checkpoints);
      EXPECT_EQ(served.stats.flags, reference.stats.flags);
    }
  }
}

TEST(StreamMonitor, ArrivalProcessChangesTimingNotDecisions) {
  const auto jobs = generated_jobs(4, /*seed=*/11);
  const auto method = method_by_name("HBOS");
  const auto reference = eval::run_method(method, jobs);

  StreamMonitorConfig config;
  config.threads = 4;
  config.arrivals = sched::poisson_arrivals(0.05);
  config.arrival_seed = 17;
  StreamMonitor monitor(jobs, method, config);
  const auto served = monitor.run();

  // Arrival offsets interleave the streams differently but each job's
  // session sees exactly the same checkpoints, so decisions cannot move.
  expect_runs_identical(served.runs, reference);
  EXPECT_EQ(monitor.arrivals().size(), jobs.size());
}

TEST(StreamMonitor, StatsCoverEveryCheckpoint) {
  const auto jobs = generated_jobs(3, /*seed=*/5);
  const auto method = method_by_name("HBOS");

  StreamMonitorConfig config;
  config.threads = 2;
  StreamMonitor monitor(jobs, method, config);
  const auto served = monitor.run();

  std::size_t expected = 0;
  std::size_t flagged = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    expected += jobs[j].checkpoint_count();
    for (auto at : served.runs[j].flagged_at) {
      if (at != eval::kNeverFlagged) ++flagged;
    }
  }
  EXPECT_EQ(served.stats.checkpoints, expected);
  EXPECT_EQ(served.stats.flags, flagged);
  EXPECT_EQ(served.stats.lanes, 2u);
  EXPECT_GT(served.stats.checkpoints_per_sec, 0.0);
  EXPECT_GE(served.stats.p99_latency_ms, served.stats.p50_latency_ms);
  EXPECT_GE(served.stats.peak_backlog, 1u);
  // Every stage body ran at least once, so every stage accumulated time.
  for (std::size_t i = 0; i < kStageCount; ++i) {
    EXPECT_GT(served.stats.stage_seconds[i], 0.0)
        << stage_name(static_cast<Stage>(i));
  }
}

// The error path: one job's predictor throws at checkpoint 3. Serialized
// and at 4 workers, the engine rethrows that error from run() only after
// every admitted event retired (in-flight back to zero), the failing lane
// stops at the failing checkpoint, and StreamMonitor::run() surfaces the
// same error.
TEST(StreamMonitor, StageErrorIsRethrownAfterTheEngineDrains) {
  const auto jobs = generated_jobs(6, /*seed=*/15);
  constexpr std::size_t kFailJob = 2;
  constexpr std::size_t kFailCheckpoint = 3;
  const auto method = failing_method(method_by_name("HBOS"),
                                     jobs[kFailJob].id, kFailCheckpoint);
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::vector<JobSession> sessions(jobs.size());
    std::vector<EngineEvent> events;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      sessions[j].predictor = method.make();
      sessions[j].run.emplace(jobs[j], *sessions[j].predictor);
      for (std::size_t t = 0; t < jobs[j].checkpoint_count(); ++t) {
        events.push_back({jobs[j].trace.tau_run(t),
                          static_cast<std::uint32_t>(j),
                          static_cast<std::uint32_t>(t)});
      }
    }
    std::sort(events.begin(), events.end(),
              [](const EngineEvent& a, const EngineEvent& b) {
                return std::tie(a.time, a.job, a.checkpoint) <
                       std::tie(b.time, b.job, b.checkpoint);
              });
    EngineConfig config;
    config.threads = workers;
    ShardEngine engine(jobs, sessions, std::move(events), config, {});
    expect_injected_failure([&] { engine.run(); });
    EXPECT_EQ(engine.inflight(), 0u);
    EXPECT_EQ(sessions[kFailJob].run->next_checkpoint(), kFailCheckpoint);

    StreamMonitorConfig monitor_config;
    monitor_config.threads = workers;
    StreamMonitor monitor(jobs, method, monitor_config);
    expect_injected_failure([&] { monitor.run(); });
  }
}

TEST(StreamMonitor, RunTwiceThrows) {
  const auto jobs = generated_jobs(1);
  StreamMonitorConfig config;
  config.threads = 1;
  StreamMonitor monitor(jobs, method_by_name("HBOS"), config);
  monitor.run();
  EXPECT_THROW(monitor.run(), std::invalid_argument);
}

// ---- live cluster feed -----------------------------------------------------

sched::ClusterConfig small_pool_config() {
  sched::ClusterConfig config;
  config.machines = 4;
  config.reclaim_releases = true;  // the regime where the pool binds
  return config;
}

void expect_cluster_identical(const sched::ClusterResult& a,
                              const sched::ClusterResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_DOUBLE_EQ(a.jobs[j].mitigated_jct, b.jobs[j].mitigated_jct);
    EXPECT_DOUBLE_EQ(a.jobs[j].completion, b.jobs[j].completion);
    EXPECT_EQ(a.jobs[j].relaunched, b.jobs[j].relaunched);
    EXPECT_EQ(a.jobs[j].waited, b.jobs[j].waited);
    EXPECT_EQ(a.jobs[j].noop_flags, b.jobs[j].noop_flags);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.relaunched, b.relaunched);
  EXPECT_EQ(a.waited, b.waited);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.peak_waiting, b.peak_waiting);
}

// Reference for the live path: a live-mode engine fed every flag up front
// (watermark never advanced until finish), which by the engine's
// determinism contract must equal any interleaved advance schedule.
sched::ClusterResult posted_upfront(std::span<const trace::Job> jobs,
                                    const StreamMonitor& monitor,
                                    std::span<const eval::JobRunResult> runs,
                                    std::uint64_t seed) {
  auto config = small_pool_config();
  const auto times = monitor.arrivals();
  config.arrivals =
      sched::fixed_arrivals(std::vector<double>(times.begin(), times.end()));
  Rng rng(seed);
  sched::ClusterEngine engine(jobs, config, rng);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (std::size_t i = 0; i < runs[j].flagged_at.size(); ++i) {
      if (runs[j].flagged_at[i] != eval::kNeverFlagged) {
        engine.post_flag(j, i, runs[j].flagged_at[i]);
      }
    }
  }
  return engine.finish();
}

TEST(LiveClusterFeed, MatchesFlagsPostedUpfront) {
  const auto jobs = generated_jobs(5, /*seed=*/7);
  const auto method = method_by_name("HBOS");
  const std::uint64_t seed = 29;

  StreamMonitorConfig config;
  config.threads = 1;
  config.arrivals = sched::poisson_arrivals(0.02);
  config.arrival_seed = 13;
  StreamMonitor monitor(jobs, method, config);
  LiveClusterFeed feed(jobs, small_pool_config(), monitor, seed);
  monitor.set_sink(feed.sink());
  const auto served = monitor.run();
  const auto live = feed.finish();

  const auto reference = posted_upfront(jobs, monitor, served.runs, seed);
  expect_cluster_identical(live, reference);
  EXPECT_GT(live.relaunched, 0u);  // the scenario actually exercises flags
}

TEST(LiveClusterFeed, ThreadCountDoesNotChangeTheCluster) {
  const auto jobs = generated_jobs(5, /*seed=*/9);
  const auto method = method_by_name("HBOS");
  const std::uint64_t seed = 31;

  auto run_at = [&](std::size_t threads) {
    StreamMonitorConfig config;
    config.threads = threads;
    config.arrivals = sched::poisson_arrivals(0.02);
    config.arrival_seed = 19;
    StreamMonitor monitor(jobs, method, config);
    LiveClusterFeed feed(jobs, small_pool_config(), monitor, seed);
    monitor.set_sink(feed.sink());
    monitor.run();
    return feed.finish();
  };

  const auto serial = run_at(1);
  const auto concurrent = run_at(4);
  expect_cluster_identical(serial, concurrent);
}

}  // namespace
}  // namespace nurd::serve
