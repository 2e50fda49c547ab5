#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "alloc_counter.h"
#include "common/thread_pool.h"
#include "core/fit_session.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "kernel/kernel.h"
#include "ml/gbt.h"
#include "ml/logistic.h"
#include "sched/cluster.h"
#include "serve/shard_pool.h"
#include "spans.h"
#include "trace/generator.h"
#include "traced_predictor.h"

namespace perfbench {
namespace {

using nurd::eval::JobRunResult;
using nurd::trace::Job;

// The ml replay's small/large split. 256 rows is where the library's
// default tree builder switches split search, so fits on either side
// exercise different code; the benchmark fixes the constant itself so the
// metric keeps its meaning when the library's cutoff moves or goes away.
constexpr std::size_t kSmallFitRows = 256;
constexpr double kPct = 90.0;
// Set-up is repeated and its median reported, so one slow page-fault storm
// does not move setup_s: at least kMinSetupReps times and until
// kSetupBudgetS is spent, at most kMaxSetupReps times. A set-up of a few
// milliseconds thus gets ~100 samples, a slow one at least 9.
constexpr std::size_t kMinSetupReps = 9;
constexpr std::size_t kMaxSetupReps = 101;
constexpr double kSetupBudgetS = 1.0;
// JCT replay: fixed seed and reclaimed releases with a limited spare pool —
// the regime of bench_cluster's cluster-size sweep. That sweep gives one
// spare per two jobs of ~250 tasks; the pool here keeps its ratio to tasks
// (one spare per 500), so jobs of 1500-3000 tasks do not saturate it.
constexpr std::uint64_t kClusterSeed = 99;
constexpr std::size_t kClusterReps = 4;
constexpr std::size_t kTasksPerSpare = 500;
// Jobs (per dataset) the traced run's ml/kernel replay walks: 160 fits at
// 10 checkpoints a job, enough for the p50s and the small-fit share.
constexpr std::size_t kReplayJobs = 16;

bool more_setup(std::span<const double> setup_s) {
  double spent = 0.0;
  for (double v : setup_s) spent += v;
  return setup_s.size() < kMinSetupReps ||
         (spent < kSetupBudgetS && setup_s.size() < kMaxSetupReps);
}

std::size_t worker_lanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

enum class Dataset { kGoogle, kAlibaba };

/// Generated jobs whose mix is fixed; only their content comes from the
/// seed. Left to chance, two properties of a job set would dominate the
/// metrics' seed-to-seed spread, so both are stratified:
///  - tail regime: round(count x far_fraction) far-tail jobs at the
///    dataset's own share, the near-tail ones spread evenly among them (F1
///    and JCT reduction differ widely between the regimes);
///  - task count: job i gets min + frac(i x golden ratio) x (max - min)
///    tasks, a fixed sequence spread evenly over the range (per-checkpoint
///    cost grows faster than the task count).
/// A task range of 0 keeps the generator default. Job i comes from a
/// generator of its own, seeded from (seed, i).
std::vector<Job> make_jobs(Dataset dataset, std::size_t count,
                           std::size_t min_tasks, std::size_t max_tasks,
                           std::uint64_t seed) {
  constexpr double kGoldenFraction = 0.6180339887498949;
  const auto defaults =
      dataset == Dataset::kGoogle
          ? nurd::trace::GoogleLikeGenerator::google_defaults()
          : nurd::trace::AlibabaLikeGenerator::alibaba_defaults();
  if (min_tasks == 0) {
    min_tasks = defaults.min_tasks;
    max_tasks = defaults.max_tasks;
  }
  const auto n_far = static_cast<std::size_t>(
      std::lround(static_cast<double>(count) * defaults.far_fraction));
  const std::size_t n_near = count - n_far;
  std::vector<Job> jobs(count);
  nurd::ThreadPool::run_indexed(count, worker_lanes(), [&](std::size_t i) {
    // Job i is near-tail when the running near-tail quota steps up at i.
    const bool far = (i + 1) * n_near / count == i * n_near / count;
    const double u = std::fmod(static_cast<double>(i) * kGoldenFraction, 1.0);
    auto config = defaults;
    config.min_tasks = std::min(
        max_tasks, min_tasks + static_cast<std::size_t>(
                                   u * static_cast<double>(max_tasks -
                                                           min_tasks + 1)));
    config.max_tasks = config.min_tasks;
    config.seed = mix_seed(seed, i);
    jobs[i] = dataset == Dataset::kGoogle
                  ? nurd::trace::GoogleLikeGenerator(config).generate_job(i, far)
                  : nurd::trace::AlibabaLikeGenerator(config).generate_job(i,
                                                                           far);
  });
  return jobs;
}

/// Table-3 family of a registry method, for eval.family_s.*.
const char* method_family(std::string_view method) {
  if (method == "GBTR") return "supervised";
  if (method.starts_with("PU-")) return "pu";
  if (method == "Tobit" || method == "Grabit" || method == "CoxPH") {
    return "censored";
  }
  if (method == "Wrangler") return "wrangler";
  if (method.starts_with("NURD")) return "nurd";
  return "outlier";
}

std::size_t total_checkpoints(std::span<const Job> jobs) {
  std::size_t n = 0;
  for (const auto& job : jobs) n += job.checkpoint_count();
  return n;
}

double store_mib(std::span<const Job> jobs) {
  double bytes = 0.0;
  for (const auto& job : jobs) {
    bytes += static_cast<double>(job.trace.memory_bytes());
  }
  return bytes / (1024.0 * 1024.0);
}

bool same_confusion(const nurd::eval::Confusion& a,
                    const nurd::eval::Confusion& b) {
  return a.tp == b.tp && a.fp == b.fp && a.fn == b.fn && a.tn == b.tn;
}

/// Checkpoint events of every job whose served record differs from the
/// reference (flagged_at and final confusion), plus events never retired.
std::uint64_t serve_failures(std::span<const Job> jobs,
                             std::span<const JobRunResult> served,
                             std::span<const JobRunResult> reference,
                             std::size_t retired) {
  std::uint64_t failed = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (j >= served.size() || served[j].flagged_at != reference[j].flagged_at ||
        !same_confusion(served[j].final, reference[j].final)) {
      failed += jobs[j].checkpoint_count();
    }
  }
  const std::size_t expected = total_checkpoints(jobs);
  if (retired < expected) failed += expected - retired;
  return failed;
}

/// Method-jobs that did not finish with consistent confusion counts and a
/// finite F1.
std::uint64_t batch_failures(std::span<const Job> jobs,
                             std::span<const JobRunResult> runs) {
  std::uint64_t failed = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (j >= runs.size()) {
      ++failed;
      continue;
    }
    const auto& c = runs[j].final;
    if (c.tp + c.fp + c.fn + c.tn != jobs[j].task_count() ||
        !std::isfinite(c.f1())) {
      ++failed;
    }
  }
  return failed;
}

struct ClusterOutcome {
  double reduction_pct = 0.0;
  double sim_ms = 0.0;  ///< per replication
  double events = 0.0;  ///< per replication
};

ClusterOutcome replay_cluster(std::span<const Job> jobs,
                              std::span<const JobRunResult> runs,
                              SpanRecorder& recorder) {
  nurd::sched::ClusterConfig config;
  std::size_t tasks = 0;
  for (const auto& job : jobs) tasks += job.task_count();
  config.machines = std::max<std::size_t>(1, tasks / kTasksPerSpare);
  config.reclaim_releases = true;
  ScopedSpan span(recorder, "sched", "simulate_cluster");
  const double t0 = now_s();
  const auto results = nurd::sched::simulate_cluster_replicated(
      jobs, runs, config, kClusterReps, kClusterSeed, 1);
  const double elapsed = now_s() - t0;
  span.close();
  ClusterOutcome out;
  out.reduction_pct =
      nurd::sched::summarize_replications(results).mean_reduction_pct;
  out.sim_ms = elapsed * 1e3 / static_cast<double>(results.size());
  for (const auto& r : results) out.events += static_cast<double>(r.events);
  out.events /= static_cast<double>(results.size());
  return out;
}

/// Space-separated values, for the metadata line.
std::string join(std::span<const double> values) {
  std::string out;
  for (const double v : values) {
    out += (out.empty() ? "" : " ") + std::to_string(v);
  }
  return out;
}

std::string percentile_meta(std::size_t n, double p) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "n=%zu, %.1f beyond p%g%s", n,
                samples_beyond(n, p), p,
                percentile_supported(n, p) ? ""
                                           : " (below the 10-sample rule)");
  return buf;
}

// ---------------------------------------------------------------------------
// The ml/kernel replay: FitSession over the workload's own views, the
// latency-model booster and the propensity logistic fitted from scratch on
// each checkpoint's blocks, and the kernel primitives timed on the same
// block shapes.

struct ReplayStats {
  std::vector<double> rows;
  std::vector<double> fit_ms_small, fit_ms_large;
  std::vector<double> fit_allocs;
  std::vector<double> predict_us_per_row;
  std::vector<double> logistic_ms;
  std::vector<double> hist_ns_per_row;
  std::vector<double> gemv_ns_per_elem;
};

void probe_kernels(const nurd::Matrix& x_fin, std::span<const double> y_fin,
                   const nurd::Matrix& x_member, std::uint32_t parent,
                   SpanRecorder& recorder, ReplayStats* stats) {
  const auto& k = nurd::kernel::ops();
  const std::size_t n = x_fin.rows();
  const std::size_t d = x_fin.cols();
  if (n > 0 && d > 0) {
    ScopedSpan span(recorder, "kernel", "hist_accumulate", parent);
    std::vector<std::uint16_t> bin_of_row(n);
    std::vector<std::size_t> rows(n);
    std::vector<double> grad(n), hess(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      bin_of_row[i] = static_cast<std::uint16_t>((i * 2654435761u >> 7) % 64);
      rows[i] = i;
      grad[i] = y_fin[i];
    }
    std::vector<double> bins(64 * nurd::kernel::kHistBinStride, 0.0);
    const std::size_t reps = std::max<std::size_t>(1, 200000 / (n * d));
    const double t0 = now_s();
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t f = 0; f < d; ++f) {
        k.hist_accumulate(bins.data(), bin_of_row.data(), rows.data(), n,
                          grad.data(), hess.data());
      }
    }
    const double elapsed = now_s() - t0;
    stats->hist_ns_per_row.push_back(elapsed * 1e9 /
                                     static_cast<double>(reps * d * n));
  }
  const std::size_t m = x_member.rows();
  const std::size_t c = x_member.cols();
  if (m > 0 && c > 0) {
    ScopedSpan span(recorder, "kernel", "gemv", parent);
    std::vector<double> w(c), out(m);
    for (std::size_t i = 0; i < c; ++i) w[i] = 0.5 + 0.01 * i;
    const std::size_t reps = std::max<std::size_t>(1, 400000 / (m * c));
    const double t0 = now_s();
    for (std::size_t r = 0; r < reps; ++r) {
      k.gemv(x_member.row(0).data(), m, c, w.data(), 0.0, out.data());
    }
    const double elapsed = now_s() - t0;
    stats->gemv_ns_per_elem.push_back(elapsed * 1e9 /
                                      static_cast<double>(reps * m * c));
  }
}

void ml_replay(std::span<const Job> jobs,
               const nurd::core::RegistryConfig& registry,
               SpanRecorder& recorder, ReplayStats* stats) {
  nurd::ml::GbtParams gbt;
  gbt.n_rounds = registry.nurd_gbt_rounds;
  gbt.tree.max_depth = registry.nurd_tree_depth;
  nurd::ml::LogisticParams logistic;
  logistic.l2 = registry.nurd_propensity_l2;

  ScopedSpan replay(recorder, "ml", "replay");
  for (const auto& job : jobs) {
    nurd::core::FitSession session(registry.refit);
    for (std::size_t t = 0; t < job.checkpoint_count(); ++t) {
      const auto view = job.checkpoint(t);
      ScopedSpan featurize(recorder, "core", "fit_session", replay.id());
      session.observe(view);
      const auto& x = session.x_fin();
      const auto y = session.y_fin();
      const auto& xm = session.x_member();
      const auto ym = session.y_member();
      featurize.close();
      if (x.rows() < 2) continue;

      auto model = nurd::ml::GradientBoosting::regressor(gbt);
      {
        ScopedSpan span(recorder, "ml", "gbt_fit", replay.id());
        set_alloc_counting(true);
        const std::uint64_t a0 = allocations();
        const double t0 = now_s();
        model.fit(x, y);
        const double ms = (now_s() - t0) * 1e3;
        const std::uint64_t allocs = allocations() - a0;
        set_alloc_counting(false);
        stats->rows.push_back(static_cast<double>(x.rows()));
        (x.rows() <= kSmallFitRows ? stats->fit_ms_small : stats->fit_ms_large)
            .push_back(ms);
        stats->fit_allocs.push_back(static_cast<double>(allocs));
      }
      {
        ScopedSpan span(recorder, "ml", "gbt_predict", replay.id());
        const double t0 = now_s();
        model.predict(xm);
        const double us = (now_s() - t0) * 1e6;
        stats->predict_us_per_row.push_back(
            us / static_cast<double>(std::max<std::size_t>(1, xm.rows())));
      }
      if (x.rows() < xm.rows()) {  // both classes present
        ScopedSpan span(recorder, "ml", "logistic_fit", replay.id());
        nurd::ml::LogisticRegression lr(logistic);
        const double t0 = now_s();
        lr.fit(xm, ym);
        stats->logistic_ms.push_back((now_s() - t0) * 1e3);
      }
      probe_kernels(x, y, xm, replay.id(), recorder, stats);
    }
  }
}

void add_replay_metrics(const ReplayStats& s, RunOutcome* out) {
  auto& m = out->metrics;
  m["ml.fit_rows.p50"] = median(s.rows);
  std::size_t small = 0;
  for (double r : s.rows) small += r <= kSmallFitRows ? 1 : 0;
  m["ml.small_fit_share"] =
      s.rows.empty() ? 0.0
                     : static_cast<double>(small) /
                           static_cast<double>(s.rows.size());
  m["ml.gbt_fit_ms.le256.p50"] = percentile(s.fit_ms_small, 50);
  m["ml.gbt_fit_ms.le256.p99"] = percentile(s.fit_ms_small, 99);
  m["ml.gbt_fit_ms.gt256.p50"] = percentile(s.fit_ms_large, 50);
  m["ml.gbt_fit_ms.gt256.p99"] = percentile(s.fit_ms_large, 99);
  m["ml.gbt_fit_allocs.p50"] = median(s.fit_allocs);
  m["ml.gbt_predict_us_per_row"] = median(s.predict_us_per_row);
  m["ml.logistic_fit_ms.p50"] = median(s.logistic_ms);
  m["kernel.hist_accumulate_ns_per_row"] = median(s.hist_ns_per_row);
  m["kernel.gemv_ns_per_elem"] = median(s.gemv_ns_per_elem);
  out->meta.emplace_back("ml_fit_le256_samples",
                         percentile_meta(s.fit_ms_small.size(), 99));
  out->meta.emplace_back("ml_fit_gt256_samples",
                         percentile_meta(s.fit_ms_large.size(), 99));
}

// Stage-call samples -> core.* metrics. Returns the summed stage total.
double add_stage_metrics(std::span<const StageSample> samples, double passes,
                         RunOutcome* out) {
  std::vector<double> ms[kStageKinds];
  for (const auto& s : samples) {
    ms[static_cast<std::size_t>(s.stage)].push_back((s.end - s.start) * 1e3);
  }
  double total = 0.0;
  for (std::size_t k = 0; k < kStageKinds; ++k) {
    const std::string base =
        std::string("core.") + stage_kind_name(static_cast<StageKind>(k)) +
        "_ms";
    double sum = 0.0;
    for (double v : ms[k]) sum += v;
    const double total_s = sum / 1e3 / passes;
    out->metrics[base + ".p50"] = percentile(ms[k], 50);
    out->metrics[base + ".p99"] = percentile(ms[k], 99);
    out->metrics[base + ".total_s"] = total_s;
    out->meta.emplace_back(base + "_samples",
                           percentile_meta(ms[k].size(), 99));
    total += total_s;
  }
  out->metrics["core.stage_total_s"] = total;
  return total;
}

void add_self_times(const SpanRecorder& recorder, RunOutcome* out) {
  const auto spans = recorder.spans();
  const auto self = self_time_by_layer(spans);
  for (const char* layer :
       {"trace", "serve", "core", "ml", "kernel", "eval", "sched"}) {
    const auto it = self.find(layer);
    out->metrics[std::string("self.") + layer + "_s"] =
        it == self.end() ? 0.0 : it->second;
  }
  out->meta.emplace_back("spans", std::to_string(spans.size()));
}

void write_spans(const SpanRecorder& recorder, const RunOptions& options,
                 RunOutcome* out) {
  if (options.out_dir.empty()) return;
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  if (recorder.write_chrome_trace(path)) {
    out->meta.emplace_back("span_file", path);
  }
}

void add_common_meta(const RunOptions& options, RunOutcome* out) {
  out->meta.emplace_back("workload", options.workload);
  out->meta.emplace_back("seed", std::to_string(options.seed));
  out->meta.emplace_back("nproc",
                         std::to_string(std::thread::hardware_concurrency()));
  out->meta.emplace_back("compiler", PB_COMPILER);
  out->meta.emplace_back("build_type", PB_BUILD_TYPE);
  out->meta.emplace_back("kernel_backend", nurd::kernel::backend_name());
}

// ---------------------------------------------------------------------------
// Serve workloads.

struct ServeSpec {
  std::size_t jobs = 128;
  std::size_t min_tasks = 0;  ///< 0 = generator default (100-400)
  std::size_t max_tasks = 0;
  std::size_t shards = 1;
  std::size_t threads = 1;  ///< workers per shard
  std::uint64_t salt = 0;
};

struct RoundResult {
  double wall = 0.0;
  double ckpt_per_s = 0.0;
  nurd::serve::FleetResult fleet;
};

RunOutcome run_serve(const ServeSpec& spec, const RunOptions& options) {
  RunOutcome out;
  add_common_meta(options, &out);
  SpanRecorder recorder;
  recorder.enable(options.trace);
  const std::size_t lanes = worker_lanes();

  auto registry = nurd::core::google_tuned();
  registry.refit = nurd::core::RefitPolicy::kIncremental;
  const auto method = nurd::core::predictor_by_name("NURD", registry);
  nurd::serve::ShardedMonitorConfig config;
  config.shards = spec.shards;
  config.threads = spec.threads;

  // Set-up: trace generation plus fleet construction (the plan).
  std::vector<double> generate_s, plan_s, setup_s;
  std::vector<Job> jobs;
  const std::uint64_t seed = mix_seed(options.seed, spec.salt);
  while (more_setup(setup_s)) {
    ScopedSpan gen_span(recorder, "trace", "generate");
    const double t0 = now_s();
    jobs = make_jobs(Dataset::kGoogle, spec.jobs, spec.min_tasks,
                     spec.max_tasks, seed);
    const double t1 = now_s();
    gen_span.close();
    ScopedSpan plan_span(recorder, "serve", "plan");
    auto fleet =
        std::make_unique<nurd::serve::ShardedMonitor>(jobs, method, config);
    const double t2 = now_s();
    plan_span.close();
    fleet.reset();
    generate_s.push_back(t1 - t0);
    plan_s.push_back(t2 - t1);
    setup_s.push_back(t2 - t0);
  }
  const std::size_t events = total_checkpoints(jobs);

  // The serial reference, outside every timed region.
  double reference_s = 0.0;
  std::vector<JobRunResult> reference;
  {
    ScopedSpan span(recorder, "eval", "run_method");
    const double t0 = now_s();
    reference = nurd::eval::run_method(method, jobs, kPct, lanes);
    reference_s = now_s() - t0;
  }

  StageTrace stage_trace(jobs, &recorder);
  const auto traced_method = traced(method, &stage_trace);

  const auto serve_round = [&](bool traced_round) {
    // Untraced rounds of the traced run record nothing.
    recorder.enable(traced_round);
    RoundResult round;
    const double t0 = now_s();
    nurd::serve::ShardedMonitor fleet(
        jobs, traced_round ? traced_method : method, config);
    plan_s.push_back(now_s() - t0);
    ScopedSpan span(recorder, "serve", traced_round ? "run" : "run_untraced");
    stage_trace.set_parent(span.id());
    const double start = now_s();
    round.fleet = fleet.run();
    round.wall = now_s() - start;
    span.close();
    round.ckpt_per_s =
        static_cast<double>(round.fleet.totals.checkpoints) / round.wall;
    out.attempted += events;
    out.failed += serve_failures(jobs, round.fleet.runs, reference,
                                 round.fleet.totals.checkpoints);
    recorder.enable(options.trace);
    return round;
  };

  std::vector<RoundResult> rounds, traced_rounds;
  std::vector<double> untraced_rate, traced_rate;
  std::uint64_t traced_allocs = 0;
  if (!options.trace) {
    // Closed loop: whole fleet runs back to back until the run length is
    // used; at least three, so the medians have a middle.
    const double begin = now_s();
    while (rounds.size() < 3 ||
           now_s() - begin + (now_s() - begin) / rounds.size() <=
               options.seconds) {
      rounds.push_back(serve_round(false));
    }
  } else {
    // Alternate untraced and traced rounds; their difference is the
    // tracing overhead. Allocations are counted in traced rounds only.
    for (int r = 0; r < 4; ++r) {
      const bool traced_round = r % 2 == 1;
      if (traced_round) {
        set_alloc_counting(true);
        const std::uint64_t a0 = allocations();
        traced_rounds.push_back(serve_round(true));
        traced_allocs += allocations() - a0;
        set_alloc_counting(false);
        traced_rate.push_back(traced_rounds.back().ckpt_per_s);
      } else {
        rounds.push_back(serve_round(false));
        untraced_rate.push_back(rounds.back().ckpt_per_s);
      }
    }
  }

  const auto& runs =
      (options.trace ? traced_rounds : rounds).back().fleet.runs;
  const auto cluster = replay_cluster(jobs, runs, recorder);
  const double nurd_f1 = nurd::eval::aggregate_method("NURD", reference).f1;

  out.meta.emplace_back("workers_per_shard", std::to_string(spec.threads));
  out.meta.emplace_back("shards", std::to_string(spec.shards));
  out.meta.emplace_back("jobs", std::to_string(jobs.size()));
  out.meta.emplace_back("events_per_round", std::to_string(events));
  out.meta.emplace_back("rounds", std::to_string(rounds.size()) +
                                      " untraced, " +
                                      std::to_string(traced_rounds.size()) +
                                      " traced");
  out.meta.emplace_back("decision_latency_samples",
                        percentile_meta(events, 99) + " per round");
  out.meta.emplace_back("setup_reps", std::to_string(setup_s.size()));

  if (!options.trace) {
    std::vector<double> rate, p50, p99, jobs_rate;
    for (const auto& r : rounds) {
      rate.push_back(r.ckpt_per_s);
      p50.push_back(r.fleet.totals.p50_latency_ms);
      p99.push_back(r.fleet.totals.p99_latency_ms);
      jobs_rate.push_back(static_cast<double>(jobs.size()) / r.wall);
    }
    out.meta.emplace_back("ckpt_per_s_rounds", join(rate));
    auto& m = out.metrics;
    m["setup_s"] = median(setup_s);
    m["ckpt_per_s"] = median(rate);
    m["decision_p50_ms"] = median(p50);
    m["decision_p99_ms"] = median(p99);
    m["method_jobs_per_s"] = median(jobs_rate);
    m["nurd_macro_f1"] = nurd_f1;
    m["table3_mean_f1"] = nurd_f1;  // one (method, dataset) row: NURD, google
    m["peak_rss_mib"] = peak_rss_mib();
    return out;
  }

  // ---- traced run: per-layer metrics ----
  const auto samples = stage_trace.take();
  const double n_traced = static_cast<double>(traced_rounds.size());
  const double core_total = add_stage_metrics(samples, n_traced, &out);
  double busy = 0.0, utilization = 0.0, refit_share = 0.0, skew = 0.0,
         shard_p99 = 0.0, backlog = 0.0;
  for (const auto& r : traced_rounds) {
    const auto& t = r.fleet.totals;
    double round_busy = 0.0;
    for (double s : t.stage_seconds) round_busy += s;
    double wall_max = 0.0, wall_sum = 0.0, p99_max = 0.0;
    for (const auto& sh : r.fleet.shards) {
      wall_max = std::max(wall_max, sh.wall_seconds);
      wall_sum += sh.wall_seconds;
      p99_max = std::max(p99_max, sh.p99_latency_ms);
    }
    busy += round_busy / n_traced;
    utilization +=
        round_busy / (static_cast<double>(t.lanes) * r.wall) / n_traced;
    // stage_seconds is indexed featurize, refit, predict, flag.
    refit_share +=
        (round_busy > 0 ? t.stage_seconds[1] / round_busy : 0.0) / n_traced;
    skew += (wall_sum > 0 ? wall_max / (wall_sum / r.fleet.shards.size())
                          : 0.0) /
            n_traced;
    shard_p99 += p99_max / n_traced;
    backlog += static_cast<double>(t.peak_backlog) / n_traced;
  }
  auto& m = out.metrics;
  const auto gaps = refit_chain_gaps_ms(samples);
  m["serve.utilization"] = utilization;
  m["serve.stage_share.refit"] = refit_share;
  m["serve.stage_busy_s"] = busy;
  m["serve.unattributed_pct"] =
      busy > 0 ? 100.0 * (busy - core_total) / busy : 0.0;
  m["serve.peak_backlog"] = backlog;
  m["serve.refit_chain_gap_ms.p50"] = percentile(gaps, 50);
  m["serve.refit_chain_gap_ms.p99"] = percentile(gaps, 99);
  m["serve.shard_wall_skew"] = skew;
  m["serve.shard_p99_max_ms"] = shard_p99;
  m["serve.plan_s"] = median(plan_s);
  m["serve.allocs_per_ckpt"] =
      static_cast<double>(traced_allocs) / (n_traced * events);
  m["trace.generate_s"] = median(generate_s);
  m["trace.store_mib"] = store_mib(jobs);
  m["sched.jct_reduction_pct"] = cluster.reduction_pct;
  m["sched.sim_ms"] = cluster.sim_ms;
  m["sched.events"] = cluster.events;
  const double untraced = median(untraced_rate);
  m["tracing.overhead_pct"] =
      100.0 * (untraced - median(traced_rate)) / untraced;
  m["eval.method_s.NURD"] = reference_s;
  m["eval.family_s.nurd"] = reference_s;
  out.meta.emplace_back("refit_chain_gap_samples",
                        percentile_meta(gaps.size(), 99));

  ReplayStats replay;
  // Large jobs' fits cost ~10x more; half the jobs keeps the replay short.
  const std::size_t replay_jobs =
      spec.min_tasks > 0 ? kReplayJobs / 2 : kReplayJobs;
  ml_replay(std::span<const Job>(jobs).first(replay_jobs), registry,
            recorder, &replay);
  add_replay_metrics(replay, &out);
  add_self_times(recorder, &out);
  write_spans(recorder, options, &out);
  return out;
}

// ---------------------------------------------------------------------------
// table3-batch: all 23 methods on both datasets through eval::run_method.

struct DatasetJobs {
  const char* name;
  nurd::core::RegistryConfig registry;
  std::vector<Job> jobs;
  std::vector<nurd::core::NamedPredictor> methods;
};

RunOutcome run_table3(const RunOptions& options) {
  constexpr std::size_t kJobsPerDataset = 16;
  RunOutcome out;
  add_common_meta(options, &out);
  SpanRecorder recorder;
  recorder.enable(options.trace);
  const std::size_t lanes = worker_lanes();

  // Set-up: both datasets' traces plus both tuned registries.
  std::vector<DatasetJobs> sets;
  std::vector<double> setup_s, generate_s;
  while (more_setup(setup_s)) {
    const double t0 = now_s();
    sets.clear();
    for (const auto dataset : {Dataset::kGoogle, Dataset::kAlibaba}) {
      DatasetJobs set{dataset == Dataset::kGoogle ? "google" : "alibaba",
                      dataset == Dataset::kGoogle ? nurd::core::google_tuned()
                                                  : nurd::core::alibaba_tuned(),
                      {},
                      {}};
      ScopedSpan span(recorder, "trace", "generate");
      set.jobs = make_jobs(dataset, kJobsPerDataset, 0, 0,
                           mix_seed(options.seed, 3 + sets.size()));
      span.close();
      sets.push_back(std::move(set));
    }
    const double t1 = now_s();
    for (auto& set : sets) {
      set.methods = nurd::core::all_predictors(set.registry);
    }
    const double t2 = now_s();
    generate_s.push_back(t1 - t0);
    setup_s.push_back(t2 - t0);
  }
  std::size_t method_jobs = 0, checkpoints = 0;
  for (const auto& set : sets) {
    method_jobs += set.methods.size() * set.jobs.size();
    checkpoints += set.methods.size() * total_checkpoints(set.jobs);
  }

  // Bare passes run the registry predictors themselves and give the
  // throughput. Decision latency needs the forwarding wrapper, so it comes
  // from separate wrapped passes (timers only, untraced run) whose time is
  // not used for throughput. The traced run pairs a bare pass with a traced
  // one (wrapper plus spans); their difference is the tracing overhead.
  enum class PassKind { kBare, kTimed, kTraced };
  struct PassResult {
    PassKind kind = PassKind::kBare;
    double wall = 0.0;
    std::map<std::string, double> method_s;
    std::vector<double> decision_ms;
    std::vector<StageSample> samples;
  };
  std::vector<double> row_f1;  // first pass, one per (method, dataset)
  std::vector<std::vector<JobRunResult>> nurd_runs;  // first pass, per set
  const auto run_pass = [&](PassKind kind) {
    PassResult pass;
    pass.kind = kind;
    const bool first_pass = row_f1.empty();  // quality is read once
    const bool traced_pass = kind == PassKind::kTraced;
    recorder.enable(traced_pass);  // other passes record no spans
    ScopedSpan pass_span(recorder, "eval", "pass");
    for (auto& set : sets) {
      StageTrace stage_trace(set.jobs, traced_pass ? &recorder : nullptr);
      for (const auto& method : set.methods) {
        const auto run = kind == PassKind::kBare
                             ? method
                             : traced(method, &stage_trace);
        ScopedSpan span(recorder, "eval", "run_method", pass_span.id());
        stage_trace.set_parent(span.id());
        std::vector<JobRunResult> runs;
        const double t0 = now_s();
        try {
          runs = nurd::eval::run_method(run, set.jobs, kPct, lanes);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "%s on %s threw: %s\n", method.name.c_str(),
                       set.name, e.what());
        }
        const double dt = now_s() - t0;
        span.close();
        pass.wall += dt;
        pass.method_s[method.name] += dt;
        out.attempted += set.jobs.size();
        out.failed += batch_failures(set.jobs, runs);
        if (first_pass && !runs.empty()) {
          row_f1.push_back(nurd::eval::aggregate_method(method.name, runs).f1);
          if (method.name == "NURD") nurd_runs.push_back(runs);
        }
        if (kind == PassKind::kBare) continue;
        // Decision latency: the harness asks for checkpoint t of a job until
        // it has the answer — the stage calls of that checkpoint, which run
        // back to back on one lane.
        auto samples = stage_trace.take();
        std::map<std::uint64_t, std::pair<double, double>> decision;
        for (const auto& s : samples) {
          auto [it, fresh] = decision.try_emplace(
              request_id(s.job, s.checkpoint), s.start, s.end);
          if (!fresh) {
            it->second.first = std::min(it->second.first, s.start);
            it->second.second = std::max(it->second.second, s.end);
          }
        }
        for (const auto& [id, span_se] : decision) {
          pass.decision_ms.push_back((span_se.second - span_se.first) * 1e3);
        }
        if (traced_pass) {
          pass.samples.insert(pass.samples.end(), samples.begin(),
                              samples.end());
        }
      }
    }
    pass_span.close();
    recorder.enable(options.trace);
    return pass;
  };

  std::vector<PassResult> passes;
  if (!options.trace) {
    // Bare and wrapped passes alternate until the run length is used; at
    // least one of each.
    const double begin = now_s();
    while (passes.size() < 2 ||
           now_s() - begin + (now_s() - begin) / passes.size() <=
               options.seconds) {
      passes.push_back(run_pass(passes.size() % 2 == 0 ? PassKind::kBare
                                                       : PassKind::kTimed));
    }
  } else {
    passes.push_back(run_pass(PassKind::kBare));
    passes.push_back(run_pass(PassKind::kTraced));
  }

  double nurd_f1 = 0.0, mean_f1 = 0.0, jct = 0.0, sim_ms = 0.0, events = 0.0;
  for (double f : row_f1) mean_f1 += f;
  mean_f1 /= static_cast<double>(std::max<std::size_t>(1, row_f1.size()));
  for (std::size_t i = 0; i < sets.size() && i < nurd_runs.size(); ++i) {
    nurd_f1 +=
        nurd::eval::aggregate_method("NURD", nurd_runs[i]).f1 / sets.size();
    const auto c = replay_cluster(sets[i].jobs, nurd_runs[i], recorder);
    jct += c.reduction_pct / sets.size();
    sim_ms += c.sim_ms;
    events += c.events;
  }

  out.meta.emplace_back("pool_lanes", std::to_string(lanes));
  out.meta.emplace_back("jobs_per_dataset", std::to_string(kJobsPerDataset));
  out.meta.emplace_back("method_jobs_per_pass", std::to_string(method_jobs));
  out.meta.emplace_back("passes", std::to_string(passes.size()));
  out.meta.emplace_back("setup_reps", std::to_string(setup_s.size()));
  out.meta.emplace_back("table3_rows", std::to_string(row_f1.size()));

  if (!options.trace) {
    std::vector<double> rate, ckpt_rate, decision;
    for (const auto& p : passes) {
      if (p.kind == PassKind::kBare) {
        rate.push_back(static_cast<double>(method_jobs) / p.wall);
        ckpt_rate.push_back(static_cast<double>(checkpoints) / p.wall);
      }
      decision.insert(decision.end(), p.decision_ms.begin(),
                      p.decision_ms.end());
    }
    out.meta.emplace_back("method_jobs_per_s_bare_passes", join(rate));
    out.meta.emplace_back("decision_latency_samples",
                          percentile_meta(decision.size(), 99));
    auto& m = out.metrics;
    m["setup_s"] = median(setup_s);
    m["ckpt_per_s"] = median(ckpt_rate);
    m["decision_p50_ms"] = percentile(decision, 50);
    m["decision_p99_ms"] = percentile(decision, 99);
    m["method_jobs_per_s"] = median(rate);
    m["nurd_macro_f1"] = nurd_f1;
    m["table3_mean_f1"] = mean_f1;
    m["peak_rss_mib"] = peak_rss_mib();
    return out;
  }

  const auto& traced_pass = passes[1];
  add_stage_metrics(traced_pass.samples, 1.0, &out);
  auto& m = out.metrics;
  for (const auto& method : sets.front().methods) {
    const auto it = traced_pass.method_s.find(method.name);
    const double s = it == traced_pass.method_s.end() ? 0.0 : it->second;
    m["eval.method_s." + method.name] = s;
    m[std::string("eval.family_s.") + method_family(method.name)] += s;
  }
  m["trace.generate_s"] = median(generate_s);
  double mib = 0.0;
  for (const auto& set : sets) mib += store_mib(set.jobs);
  m["trace.store_mib"] = mib;
  m["sched.jct_reduction_pct"] = jct;
  m["sched.sim_ms"] = sim_ms / sets.size();
  m["sched.events"] = events / sets.size();
  const double untraced = static_cast<double>(method_jobs) / passes[0].wall;
  const double traced_rate =
      static_cast<double>(method_jobs) / traced_pass.wall;
  m["tracing.overhead_pct"] = 100.0 * (untraced - traced_rate) / untraced;

  ReplayStats replay;
  for (const auto& set : sets) {
    ml_replay(std::span<const Job>(set.jobs).first(kReplayJobs), set.registry,
              recorder, &replay);
  }
  add_replay_metrics(replay, &out);
  add_self_times(recorder, &out);
  write_spans(recorder, options, &out);
  return out;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "serve-small" || name == "serve-large" ||
         name == "table3-batch";
}

RunOutcome run_workload(const RunOptions& options) {
  if (options.workload == "serve-small") {
    ServeSpec spec;
    spec.shards = 1;
    spec.threads = worker_lanes();
    spec.salt = 1;
    return run_serve(spec, options);
  }
  if (options.workload == "serve-large") {
    ServeSpec spec;
    spec.min_tasks = 1500;
    spec.max_tasks = 3000;
    spec.shards = 4;
    spec.threads = 1;
    spec.salt = 2;
    return run_serve(spec, options);
  }
  if (options.workload == "table3-batch") return run_table3(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
