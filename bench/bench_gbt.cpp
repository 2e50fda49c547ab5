// GBT training-throughput bench: exact vs histogram split finding on
// synthetic regression data, plus the parallel evaluation-harness speedup.
//
//   $ ./bench_gbt [--n=10000] [--d=16] [--rounds=20] [--min-depth=3]
//                 [--max-depth=8] [--eval-jobs=50] [--threads=4]
//                 [--eval-method=NURD] [--skip-eval=0]
//
// Prints, per depth: fit time, fit throughput (rows/sec, counting each
// boosting round as one pass over the rows), predict throughput, and the
// histogram/exact speedup. Then times evaluate_method at 1 thread vs
// --threads threads on a --eval-jobs Google-like trace and checks the two
// runs produce identical metrics. Every fit runs serially on the lane that
// owns its job, so the 1-thread baseline and each of the --threads lanes do
// the same per-job work, and the harness speedup is the lanes' alone.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/registry.h"
#include "eval/harness.h"
#include "kernel/kernel.h"
#include "ml/gbt.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct FitTiming {
  double fit_seconds = 0.0;
  double predict_seconds = 0.0;
};

FitTiming time_gbt(const nurd::Matrix& x, const std::vector<double>& y,
                   nurd::ml::GbtParams params) {
  FitTiming t;
  auto model = nurd::ml::GradientBoosting::regressor(params);
  const auto fit_start = Clock::now();
  model.fit(x, y);
  t.fit_seconds = seconds_since(fit_start);
  const auto predict_start = Clock::now();
  double sum = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) sum += model.predict(x.row(i));
  volatile double sink = sum;  // keep the predict loop from being elided
  (void)sink;
  t.predict_seconds = seconds_since(predict_start);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nurd;

  const auto n = static_cast<std::size_t>(bench::arg_long(argc, argv, "n", 10000));
  const auto d = static_cast<std::size_t>(bench::arg_long(argc, argv, "d", 16));
  const int rounds = static_cast<int>(bench::arg_long(argc, argv, "rounds", 20));
  const int min_depth = static_cast<int>(bench::arg_long(argc, argv, "min-depth", 3));
  const int max_depth = static_cast<int>(bench::arg_long(argc, argv, "max-depth", 8));
  const auto eval_jobs = static_cast<std::size_t>(
      bench::arg_long(argc, argv, "eval-jobs", 50));
  const auto threads = static_cast<std::size_t>(
      bench::arg_long(argc, argv, "threads", 4));
  const auto eval_method =
      bench::arg_string(argc, argv, "eval-method", "NURD");
  const bool skip_eval = bench::arg_long(argc, argv, "skip-eval", 0) != 0;
  bench::reject_unknown_args(argc, argv);

  // Synthetic regression task: nonlinear, every feature informative enough
  // that trees keep splitting to the depth cap.
  Rng rng(99);
  Matrix x(n, d);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      x(i, j) = rng.normal();
      s += (j % 2 == 0 ? 1.0 : -0.5) * x(i, j);
    }
    y[i] = std::sin(s) + 0.1 * s * s + rng.normal(0.0, 0.1);
  }

  std::printf("bench_gbt: n=%zu d=%zu rounds=%d kernel-backend=%s\n", n, d,
              rounds, kernel::backend_name());
  std::printf("%6s  %12s %14s  %12s %14s  %8s\n", "depth", "exact fit(s)",
              "exact rows/s", "hist fit(s)", "hist rows/s", "speedup");

  const double total_rows =
      static_cast<double>(n) * static_cast<double>(rounds);
  for (int depth = min_depth; depth <= max_depth; ++depth) {
    ml::GbtParams params;
    params.n_rounds = rounds;
    params.tree.max_depth = depth;

    params.tree.split = ml::SplitMethod::kExact;
    const auto exact = time_gbt(x, y, params);
    params.tree.split = ml::SplitMethod::kHistogram;
    const auto hist = time_gbt(x, y, params);

    std::printf("%6d  %12.3f %14.0f  %12.3f %14.0f  %7.2fx\n", depth,
                exact.fit_seconds, total_rows / exact.fit_seconds,
                hist.fit_seconds, total_rows / hist.fit_seconds,
                exact.fit_seconds / hist.fit_seconds);
    std::printf("%6s  predict: exact %.0f rows/s, hist %.0f rows/s\n", "",
                static_cast<double>(n) / exact.predict_seconds,
                static_cast<double>(n) / hist.predict_seconds);
  }

  if (skip_eval) return 0;

  // Parallel harness: same trace, same method, 1 thread vs `threads`.
  const auto jobs = bench::make_jobs(bench::Dataset::kGoogle, eval_jobs);
  const auto method =
      core::predictor_by_name(eval_method, core::google_tuned());

  const auto serial_start = Clock::now();
  const auto serial = eval::evaluate_method(method, jobs, 90.0, 1);
  const double serial_s = seconds_since(serial_start);

  const auto parallel_start = Clock::now();
  const auto parallel = eval::evaluate_method(method, jobs, 90.0, threads);
  const double parallel_s = seconds_since(parallel_start);

  std::printf("\nevaluate_method(%s, %zu jobs): 1 thread %.2fs, "
              "%zu threads %.2fs (%.2fx)\n",
              eval_method.c_str(), eval_jobs, serial_s, threads, parallel_s,
              serial_s / parallel_s);
  std::printf("determinism: F1 %s (%.6f vs %.6f), TPR %s, FPR %s\n",
              serial.f1 == parallel.f1 ? "identical" : "MISMATCH", serial.f1,
              parallel.f1, serial.tpr == parallel.tpr ? "identical" : "MISMATCH",
              serial.fpr == parallel.fpr ? "identical" : "MISMATCH");
  bench::print_resource_report("bench_gbt");
  return (serial.f1 == parallel.f1 && serial.tpr == parallel.tpr &&
          serial.fpr == parallel.fpr)
             ? 0
             : 1;
}
