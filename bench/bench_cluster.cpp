// Cluster-level scenario sweeps over the event-driven shared-pool simulator
// (the production-scale generalization of the paper's Figures 6-9 setting:
// many concurrent jobs, one spare-machine pool, continuous-time arrivals).
//
//   $ ./bench_cluster [--jobs=24] [--dataset=google|alibaba] [--method=NURD]
//                     [--reps=8] [--seed=99] [--threads=0]
//                     [--json=BENCH_cluster.json]
//
// Three sweeps, all driven by one run_method pass for the chosen predictor:
//   1. shared spare machines (batch arrivals) — the Figure 6/7 axis lifted
//      to a shared pool;
//   2. Poisson arrival rate at a fixed pool — offered load vs mitigation
//      and makespan;
//   3. cluster size (concurrent jobs) at a fixed spares-per-job ratio.
// Replications are parallelized over the thread pool with forked RNG
// streams; the printed numbers are bit-identical for any --threads.
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "sched/cluster.h"

int main(int argc, char** argv) {
  using namespace nurd;
  const auto n_jobs =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "jobs", 24));
  const auto reps =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "reps", 8));
  const auto seed =
      static_cast<std::uint64_t>(bench::arg_long(argc, argv, "seed", 99));
  const auto threads =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "threads", 0));
  const auto which = bench::arg_string(argc, argv, "dataset", "google");
  const auto method_name = bench::arg_string(argc, argv, "method", "NURD");
  const auto json_path = bench::arg_string(argc, argv, "json", "");
  bench::reject_unknown_args(argc, argv);
  const auto dataset =
      which == "alibaba" ? bench::Dataset::kAlibaba : bench::Dataset::kGoogle;

  const auto jobs = bench::make_jobs(dataset, n_jobs);
  const auto method =
      core::predictor_by_name(method_name, bench::tuned_config(dataset));
  const auto runs = eval::run_method(method, jobs, 90.0, threads);

  double mean_jct = 0.0;
  for (const auto& job : jobs) mean_jct += job.completion_time();
  mean_jct /= static_cast<double>(jobs.size());

  std::cout << "=== Cluster scenario sweeps — " << method_name << ", "
            << bench::dataset_name(dataset) << " (" << jobs.size()
            << " jobs, " << reps << " replications, mean JCT "
            << TextTable::num(mean_jct, 0) << "s) ===\n\n";

  const auto sweep = [&](const sched::ClusterConfig& config) {
    return sched::summarize_replications(sched::simulate_cluster_replicated(
        jobs, runs, config, reps, seed, threads));
  };

  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("cluster");
  json.key("method").value(method_name);
  json.key("dataset").value(bench::dataset_name(dataset));
  json.key("jobs").value(n_jobs);
  json.key("replications").value(reps);
  json.key("mean_jct_s").value(mean_jct);
  json.key("sweeps").begin_array();
  // One row per sweep point: the axis value plus the replication summary.
  const auto json_point = [&](const char* axis, double axis_value,
                              std::size_t machines,
                              const sched::ClusterSummary& s) {
    json.begin_object();
    json.key(axis).value(axis_value);
    json.key("machines").value(machines);
    json.key("mean_reduction_pct").value(s.mean_reduction_pct);
    json.key("mean_makespan_s").value(s.mean_makespan);
    json.key("mean_relaunched").value(s.mean_relaunched);
    json.key("mean_waited").value(s.mean_waited);
    json.key("max_peak_waiting").value(s.max_peak_waiting);
    json.end_object();
  };

  for (const bool reclaim : {false, true}) {
    std::cout << "-- Sweep 1" << (reclaim ? "b" : "a")
              << ": spare machines (batch arrivals), "
              << (reclaim ? "dedicated pool (releases reclaimed)"
                          : "donated releases (Algorithm 3 semantics)")
              << "\n";
    TextTable table({"machines", "mean red %", "makespan(s)", "relaunched",
                     "waited", "peak queue"});
    json.begin_object();
    json.key("sweep").value(reclaim ? "machines_reclaimed" : "machines_donated");
    json.key("points").begin_array();
    for (const std::size_t m : {0, 5, 10, 20, 40, 80, 160}) {
      sched::ClusterConfig config;
      config.machines = m;
      config.reclaim_releases = reclaim;
      const auto s = sweep(config);
      table.add_row({std::to_string(m), TextTable::num(s.mean_reduction_pct, 1),
                     TextTable::num(s.mean_makespan, 0),
                     TextTable::num(s.mean_relaunched, 1),
                     TextTable::num(s.mean_waited, 1),
                     std::to_string(s.max_peak_waiting)});
      json_point("machines", static_cast<double>(m), m, s);
    }
    json.end_array();
    json.end_object();
    std::cout << table.render() << "\n";
  }

  {
    std::cout << "-- Sweep 2: Poisson arrival rate (dedicated pool of "
              << n_jobs / 2 << " spares); load = rate x mean JCT\n";
    TextTable table({"load", "mean red %", "makespan(s)", "relaunched",
                     "waited", "peak queue"});
    json.begin_object();
    json.key("sweep").value("poisson_load");
    json.key("points").begin_array();
    for (const double load : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      sched::ClusterConfig config;
      config.machines = n_jobs / 2;
      config.reclaim_releases = true;
      config.arrivals = sched::poisson_arrivals(load / mean_jct);
      const auto s = sweep(config);
      table.add_row({TextTable::num(load, 2),
                     TextTable::num(s.mean_reduction_pct, 1),
                     TextTable::num(s.mean_makespan, 0),
                     TextTable::num(s.mean_relaunched, 1),
                     TextTable::num(s.mean_waited, 1),
                     std::to_string(s.max_peak_waiting)});
      json_point("load", load, config.machines, s);
    }
    json.end_array();
    json.end_object();
    std::cout << table.render() << "\n";
  }

  {
    std::cout << "-- Sweep 3: cluster size (batch arrivals, dedicated pool "
                 "of 1 spare per 2 jobs)\n";
    TextTable table({"jobs", "machines", "mean red %", "makespan(s)",
                     "waited", "peak queue"});
    std::vector<std::size_t> sizes;
    for (std::size_t c = 3; c < jobs.size(); c *= 2) sizes.push_back(c);
    sizes.push_back(jobs.size());  // always end on the full cluster
    json.begin_object();
    json.key("sweep").value("cluster_size");
    json.key("points").begin_array();
    for (const std::size_t count : sizes) {
      sched::ClusterConfig config;
      config.machines = count / 2;
      config.reclaim_releases = true;
      const std::span<const trace::Job> subset(jobs.data(), count);
      const std::span<const eval::JobRunResult> subruns(runs.data(), count);
      const auto s =
          sched::summarize_replications(sched::simulate_cluster_replicated(
              subset, subruns, config, reps, seed, threads));
      table.add_row({std::to_string(count), std::to_string(config.machines),
                     TextTable::num(s.mean_reduction_pct, 1),
                     TextTable::num(s.mean_makespan, 0),
                     TextTable::num(s.mean_waited, 1),
                     std::to_string(s.max_peak_waiting)});
      json_point("cluster_jobs", static_cast<double>(count), config.machines,
                 s);
    }
    json.end_array();
    json.end_object();
    std::cout << table.render() << "\n";
  }

  json.end_array();
  json.key("peak_rss_bytes").value(bench::peak_rss_bytes());
  json.end_object();
  if (!json_path.empty() && !json.write_file(json_path)) return 1;
  return 0;
}
