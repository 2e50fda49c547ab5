// Self-tests of the benchmark's own code: the percentile and sample-count
// rule, self time, the refit-gap reduction, the per-thread stage log, the
// forwarding wrapper's flag identity, and that every workload named on the
// command line is one the binary runs. Exits non-zero if any check failed.
// Run through `python3 perfbench/run.py --selftest`, which passes the
// workloads BENCHMARK.json declares and also checks BENCHMARK.json itself.
//
//   perfbench_selftest [workload...]
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "eval/harness.h"
#include "serve/shard_pool.h"
#include "spans.h"
#include "trace/generator.h"
#include "traced_predictor.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile_rule() {
  using perfbench::percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  expect(near(percentile(v, 50), 50.5), "p50 of 1..100 interpolates");
  expect(near(percentile(v, 99), 99.01), "p99 of 1..100 interpolates");
  expect(near(percentile(v, 0), 1) && near(percentile(v, 100), 100),
         "p0/p100 are the extremes");
  expect(percentile({}, 50) == 0.0, "empty sample reads 0");
  expect(near(perfbench::median({3, 1, 2}), 2), "median");
  expect(near(perfbench::samples_beyond(1280, 99), 12.8),
         "1280 samples leave 12.8 beyond p99");
  expect(perfbench::percentile_supported(1280, 99), "p99 supported at 1280");
  expect(perfbench::percentile_supported(1000, 99), "p99 supported at 1000");
  expect(!perfbench::percentile_supported(999, 99), "p99 unsupported at 999");
  expect(perfbench::percentile_supported(20, 50), "p50 supported at 20");
}

perfbench::Span span(std::uint32_t id, std::uint32_t parent, const char* layer,
                     double start, double end) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.layer = layer;
  s.start = start;
  s.end = end;
  return s;
}

void test_self_time() {
  const auto parent = span(1, 0, "serve", 0, 10);
  // Overlapping children count once; children reaching outside the parent
  // are clipped to it: covered = [0,0.5] + [1,5] + [7,8] + [9,10] = 6.5.
  const std::vector<perfbench::Span> children = {
      span(2, 1, "core", 1, 3), span(3, 1, "core", 2, 5),
      span(4, 1, "core", 7, 8), span(5, 1, "core", 9, 12),
      span(7, 1, "core", -1, 0.5)};
  expect(near(perfbench::self_time(parent, children), 3.5),
         "self time = duration - covered child interval");
  expect(near(perfbench::self_time(parent, {}), 10.0),
         "a leaf's self time is its duration");

  std::vector<perfbench::Span> all = children;
  all.push_back(parent);
  all.push_back(span(6, 2, "ml", 1.5, 2.5));  // grandchild under span 2
  const auto by_layer = perfbench::self_time_by_layer(all);
  expect(near(by_layer.at("serve"), 3.5), "serve self time");
  // core: (2-1) + 3 + 1 + 3 + 1.5 = 9.5 (span 2 loses its ml child's
  // second).
  expect(near(by_layer.at("core"), 9.5), "core self time");
  expect(near(by_layer.at("ml"), 1.0), "ml self time");
}

void test_refit_gaps() {
  using perfbench::StageKind;
  const std::vector<perfbench::StageSample> samples = {
      {0, 1, StageKind::kRefit, 0.010, 0.020},
      {0, 0, StageKind::kRefit, 0.000, 0.004},
      {0, 1, StageKind::kPredict, 0.020, 0.030},
      {1, 0, StageKind::kRefit, 0.000, 0.001},
      {1, 2, StageKind::kRefit, 0.050, 0.060},  // no checkpoint 1: no gap
  };
  const auto gaps = perfbench::refit_chain_gaps_ms(samples);
  expect(gaps.size() == 1 && near(gaps[0], 6.0),
         "one gap: job 0 refit(0) end -> refit(1) start");
}

void test_stage_log_threads() {
  // Four threads record into one trace, each into its own buffer; take()
  // gathers every sample once and leaves the log empty.
  perfbench::StageTrace trace({}, nullptr);
  constexpr std::uint32_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&trace, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        trace.record({t, i, perfbench::StageKind::kRefit, 0.0, 1.0});
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto samples = trace.take();
  std::vector<std::uint32_t> per_job(4, 0);
  for (const auto& s : samples) ++per_job[s.job];
  expect(samples.size() == 4 * kPerThread &&
             per_job == std::vector<std::uint32_t>(4, kPerThread),
         "every thread's samples are taken once");
  expect(trace.take().empty(), "take() clears the log");
}

void test_workload_names(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (!perfbench::is_workload(argv[i])) {
      std::fprintf(stderr, "FAIL: %s is not a workload of the binary\n",
                   argv[i]);
      ++g_failures;
    }
  }
}

bool same_runs(const std::vector<nurd::eval::JobRunResult>& a,
               const std::vector<nurd::eval::JobRunResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    const auto& x = a[j].final;
    const auto& y = b[j].final;
    if (a[j].flagged_at != b[j].flagged_at || x.tp != y.tp || x.fp != y.fp ||
        x.fn != y.fn || x.tn != y.tn) {
      return false;
    }
  }
  return true;
}

void test_wrapper_flag_identity() {
  auto config = nurd::trace::GoogleLikeGenerator::google_defaults();
  config.min_tasks = 60;
  config.max_tasks = 120;
  config.seed = 4242;
  const auto jobs = nurd::trace::GoogleLikeGenerator(config).generate(6, 2);
  perfbench::StageTrace trace(jobs, nullptr);

  for (const auto policy : {nurd::core::RefitPolicy::kFull,
                            nurd::core::RefitPolicy::kIncremental}) {
    auto registry = nurd::core::google_tuned();
    registry.refit = policy;
    for (const char* name : {"NURD", "GBTR", "HBOS", "Wrangler"}) {
      const auto method = nurd::core::predictor_by_name(name, registry);
      const auto wrapped = perfbench::traced(method, &trace);
      const auto inner = method.make();
      const auto outer = wrapped.make();
      expect(outer->name() == inner->name(), "wrapper forwards name()");
      expect(outer->staged() == inner->staged(), "wrapper forwards staged()");
      expect(outer->privilege() == inner->privilege(),
             "wrapper forwards privilege()");
      const auto reference = nurd::eval::run_method(method, jobs, 90.0, 2);
      expect(same_runs(nurd::eval::run_method(wrapped, jobs, 90.0, 2),
                       reference),
             "wrapped run_method flags equal the reference");
    }
  }
  trace.take();

  // One sample per stage call: the harness calls each of staged NURD's
  // three stages once per checkpoint.
  {
    const auto method =
        nurd::core::predictor_by_name("NURD", nurd::core::google_tuned());
    nurd::eval::run_method(perfbench::traced(method, &trace), jobs, 90.0, 2);
    std::size_t checkpoints = 0;
    for (const auto& job : jobs) checkpoints += job.checkpoint_count();
    std::size_t per_stage[perfbench::kStageKinds] = {};
    for (const auto& s : trace.take()) {
      ++per_stage[static_cast<std::size_t>(s.stage)];
    }
    expect(per_stage[0] == checkpoints && per_stage[1] == checkpoints &&
               per_stage[2] == checkpoints,
           "one timed sample per stage call");
  }

  // Through the serving fleet, as the serve workloads run it.
  auto registry = nurd::core::google_tuned();
  registry.refit = nurd::core::RefitPolicy::kIncremental;
  const auto method = nurd::core::predictor_by_name("NURD", registry);
  const auto reference = nurd::eval::run_method(method, jobs, 90.0, 2);
  nurd::serve::ShardedMonitorConfig fleet_config;
  fleet_config.shards = 2;
  fleet_config.threads = 2;
  nurd::serve::ShardedMonitor fleet(jobs, perfbench::traced(method, &trace),
                                    fleet_config);
  expect(same_runs(fleet.run().runs, reference),
         "wrapped fleet flags equal the serial reference");
}

}  // namespace

int main(int argc, char** argv) {
  test_percentile_rule();
  test_self_time();
  test_refit_gaps();
  test_stage_log_threads();
  test_workload_names(argc, argv);
  test_wrapper_flag_identity();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: ok\n");
  return 0;
}
