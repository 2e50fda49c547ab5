// The scenario-zoo robustness table: every registered scenario
// (src/scenario/scenario.h) swept against the chosen method families, on
// both synthetic trace families.
//
//   $ ./bench_scenarios [--jobs=16] [--reps=2] [--seed=99] [--threads=0]
//                       [--datasets=google,alibaba] [--methods=NURD,GBTR]
//                       [--scenarios=<csv, default all>] [--check=0]
//                       [--json=BENCH_scenarios.json]
//
// Per (dataset, scenario, method) cell: the predictor's macro-F1 over the
// scenario's job set, the cluster-level mean JCT reduction under the
// scenario's arrival/pool/injection regime, and both as DELTAS against the
// "baseline" scenario — the robustness story is how far each hostile axis
// pulls a method from its stationary numbers.
//
// --check=1 (the CI smoke mode) exits non-zero unless:
//   * every cell completed with zero stranded tasks (injected failures never
//     starve the pool for good);
//   * under the "drift" scenario, each method's macro-F1 with
//     RefitPolicy::kIncremental stays within 0.02 of kFull on BOTH tuned
//     configs — the warm-start path may not quietly rot when the feature
//     distribution rotates mid-stream (the gate needs the default >=16
//     jobs: per-job macro-F1 is coarse, so tiny job sets alias a handful
//     of flag flips into gaps several times the real policy difference);
//   * the "failures" and "drift" scenario cells are bit-identical at 1 vs 4
//     threads (the injection and drift machinery preserves the determinism
//     contract end to end).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "scenario/scenario.h"
#include "sched/cluster.h"

namespace {

using namespace nurd;

scenario::TraceFamily to_family(bench::Dataset d) {
  return d == bench::Dataset::kGoogle ? scenario::TraceFamily::kGoogle
                                      : scenario::TraceFamily::kAlibaba;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nurd;
  const auto n_jobs =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "jobs", 16));
  const auto reps =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "reps", 2));
  const auto seed =
      static_cast<std::uint64_t>(bench::arg_long(argc, argv, "seed", 99));
  const auto threads =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "threads", 0));
  const bool check = bench::arg_long(argc, argv, "check", 0) != 0;
  const auto json_path = bench::arg_string(argc, argv, "json", "");
  const auto method_names =
      bench::split_csv(bench::arg_string(argc, argv, "methods", "NURD,GBTR"));
  const auto dataset_names = bench::split_csv(
      bench::arg_string(argc, argv, "datasets", "google,alibaba"));

  std::vector<std::string> scenario_names;
  {
    const auto flag = bench::arg_string(argc, argv, "scenarios", "");
    if (flag.empty()) {
      for (const auto& spec : scenario::scenario_zoo()) {
        scenario_names.push_back(spec.name);
      }
    } else {
      scenario_names = bench::split_csv(flag);
    }
  }
  bench::reject_unknown_args(argc, argv);

  std::vector<bench::Dataset> datasets;
  for (const auto& name : dataset_names) {
    datasets.push_back(name == "alibaba" ? bench::Dataset::kAlibaba
                                         : bench::Dataset::kGoogle);
  }

  std::printf("=== Scenario-zoo robustness table (%zu jobs, %zu reps) ===\n\n",
              n_jobs, reps);

  bool ok = true;
  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("scenarios");
  json.key("jobs").value(n_jobs);
  json.key("replications").value(reps);
  json.key("datasets").begin_array();

  for (const bench::Dataset dataset : datasets) {
    const auto family = to_family(dataset);
    json.begin_object();
    json.key("dataset").value(bench::dataset_name(dataset));
    json.key("cells").begin_array();

    std::printf("-- %s\n", bench::dataset_name(dataset));
    nurd::TextTable table({"scenario", "method", "macro-F1", "dF1",
                           "JCT red %", "dred", "fail", "preempt",
                           "stranded"});

    // One cell per (scenario, method); the "baseline" scenario's cells are
    // the delta reference, so it is always evaluated (first) even when the
    // --scenarios list omits it.
    struct Baseline {
      double f1 = 0.0;
      double red = 0.0;
    };
    std::vector<Baseline> baselines(method_names.size());
    std::vector<std::string> ordered = scenario_names;
    if (ordered.empty() || ordered.front() != "baseline") {
      std::erase(ordered, std::string("baseline"));
      ordered.insert(ordered.begin(), "baseline");
    }

    for (const std::string& scenario_name : ordered) {
      const auto& spec = scenario::scenario_by_name(scenario_name);
      for (std::size_t m = 0; m < method_names.size(); ++m) {
        const auto method = core::predictor_by_name(
            method_names[m], bench::tuned_config(dataset));
        const auto cell = scenario::evaluate_scenario(
            spec, family, method, n_jobs, reps, seed, threads);
        if (scenario_name == "baseline") {
          baselines[m] = {cell.macro_f1, cell.mean_reduction_pct};
        }
        const double df1 = cell.macro_f1 - baselines[m].f1;
        const double dred = cell.mean_reduction_pct - baselines[m].red;
        table.add_row({spec.name, method_names[m],
                       nurd::TextTable::num(cell.macro_f1, 3),
                       nurd::TextTable::num(df1, 3),
                       nurd::TextTable::num(cell.mean_reduction_pct, 1),
                       nurd::TextTable::num(dred, 1),
                       std::to_string(cell.machine_failures),
                       std::to_string(cell.preempted),
                       std::to_string(cell.stranded)});
        json.begin_object();
        json.key("scenario").value(spec.name);
        json.key("method").value(method_names[m]);
        json.key("macro_f1").value(cell.macro_f1);
        json.key("delta_f1").value(df1);
        json.key("mean_reduction_pct").value(cell.mean_reduction_pct);
        json.key("delta_reduction_pct").value(dred);
        json.key("mean_makespan_s").value(cell.mean_makespan);
        json.key("relaunched").value(cell.relaunched);
        json.key("machine_failures").value(cell.machine_failures);
        json.key("preempted").value(cell.preempted);
        json.key("stranded").value(cell.stranded);
        json.end_object();
        if (check && cell.stranded != 0) {
          ok = false;
          std::printf("  [check] FAIL: %s/%s/%s stranded %zu tasks\n",
                      bench::dataset_name(dataset), spec.name.c_str(),
                      method_names[m].c_str(), cell.stranded);
        }
      }
    }
    std::printf("%s\n", table.render().c_str());
    json.end_array();
    json.end_object();
  }
  json.end_array();

  if (check) {
    // Drift pinning: the warm-start refit path under mid-stream distribution
    // shift, both tuned configs. The drift scenario's job set is generated
    // once per family and shared by both policies.
    std::printf("-- check: kIncremental vs kFull under drift\n");
    const auto& drift = scenario::scenario_by_name("drift");
    json.key("drift_check").begin_array();
    for (const bench::Dataset dataset : {bench::Dataset::kGoogle,
                                         bench::Dataset::kAlibaba}) {
      const auto jobs =
          scenario::make_jobs(drift, to_family(dataset), n_jobs, 0, threads);
      for (const auto& name : method_names) {
        auto config = bench::tuned_config(dataset);
        config.refit = core::RefitPolicy::kFull;
        const double full =
            eval::evaluate_method(core::predictor_by_name(name, config), jobs,
                                  90.0, threads)
                .f1;
        config.refit = core::RefitPolicy::kIncremental;
        const double warm =
            eval::evaluate_method(core::predictor_by_name(name, config), jobs,
                                  90.0, threads)
                .f1;
        const double diff = std::abs(full - warm);
        std::printf("  %s %-8s full %.4f warm %.4f |d| %.4f\n",
                    bench::dataset_name(dataset), name.c_str(), full, warm,
                    diff);
        json.begin_object();
        json.key("dataset").value(bench::dataset_name(dataset));
        json.key("method").value(name);
        json.key("f1_full").value(full);
        json.key("f1_incremental").value(warm);
        json.end_object();
        if (!(diff <= 0.02)) {
          ok = false;
          std::printf("  [check] FAIL: drift refit gap %.4f > 0.02\n", diff);
        }
      }
    }
    json.end_array();

    // Thread-count determinism: the injection and drift scenarios must be
    // bit-identical at 1 vs 4 threads.
    std::printf("-- check: 1 vs 4 thread bit-identity\n");
    for (const char* name : {"failures", "drift"}) {
      const auto& spec = scenario::scenario_by_name(name);
      const auto method = core::predictor_by_name(
          method_names.front(), bench::tuned_config(bench::Dataset::kGoogle));
      const auto serial = scenario::evaluate_scenario(
          spec, scenario::TraceFamily::kGoogle, method, n_jobs, reps, seed,
          /*threads=*/1);
      const auto wide = scenario::evaluate_scenario(
          spec, scenario::TraceFamily::kGoogle, method, n_jobs, reps, seed,
          /*threads=*/4);
      const bool same = bits_equal(serial.macro_f1, wide.macro_f1) &&
                        bits_equal(serial.mean_reduction_pct,
                                   wide.mean_reduction_pct) &&
                        bits_equal(serial.mean_makespan, wide.mean_makespan) &&
                        bits_equal(serial.mean_jct, wide.mean_jct) &&
                        serial.relaunched == wide.relaunched &&
                        serial.machine_failures == wide.machine_failures &&
                        serial.preempted == wide.preempted &&
                        serial.stranded == wide.stranded;
      std::printf("  %-9s %s\n", name, same ? "bit-identical" : "DIVERGED");
      if (!same) {
        ok = false;
        std::printf("  [check] FAIL: scenario '%s' diverges across thread "
                    "counts\n",
                    name);
      }
    }
  }

  json.key("check_ok").value(ok);
  json.end_object();
  if (!json_path.empty()) json.write_file(json_path);
  bench::print_resource_report("bench_scenarios");
  if (check) {
    std::printf("[check] %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return 0;
}
