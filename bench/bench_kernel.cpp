// Kernel-primitive microbenchmark: per-primitive throughput (GB/s) of the
// kernel::ops() table.
//
//   $ ./bench_kernel [--n=262144] [--reps=200] [--cols=16]
//
// Each primitive runs `reps` times over an --n-element working set (matrix
// primitives use n/cols rows of --cols features). The reported bytes/sec
// counts the doubles the primitive must stream (reads + writes), so the
// numbers are comparable across primitives with different arithmetic
// intensity. A `sink` accumulator keeps the optimizer honest.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/aligned.h"
#include "common/rng.h"
#include "kernel/kernel.h"

namespace {

using Clock = std::chrono::steady_clock;
using nurd::AlignedVector;
using nurd::kernel::KernelOps;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workset {
  std::size_t n = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  AlignedVector<double> a, b, out;
  std::vector<std::size_t> idx;
  std::vector<std::uint16_t> bins16;
  std::vector<std::uint32_t> out32;
  AlignedVector<double> hist;
};

struct PrimitiveTiming {
  const char* name;
  double bytes_per_rep = 0.0;  ///< doubles streamed × 8
  double seconds = 0.0;
};

// Runs every primitive `reps` times and returns one timing row per
// primitive. `sink` defeats dead-code elimination across reps.
std::vector<PrimitiveTiming> run_primitives(const KernelOps& ops, Workset& w,
                                            int reps, double* sink) {
  std::vector<PrimitiveTiming> rows;
  const auto dn = static_cast<double>(w.n);
  auto time_it = [&](const char* name, double bytes, auto&& body) {
    const auto start = Clock::now();
    for (int r = 0; r < reps; ++r) body();
    rows.push_back({name, bytes, seconds_since(start)});
  };

  time_it("dot", 2 * dn * 8, [&] {
    *sink += ops.dot(0.0, w.a.data(), w.b.data(), w.n);
  });
  time_it("dot_sub", 2 * dn * 8, [&] {
    *sink += ops.dot_sub(0.0, w.a.data(), w.b.data(), w.n);
  });
  time_it("squared_l2", 2 * dn * 8, [&] {
    *sink += ops.squared_l2(w.a.data(), w.b.data(), w.n);
  });
  time_it("pair_sum_indexed", 3 * dn * 8, [&] {
    double sa = 0.0, sb = 0.0;
    ops.pair_sum_indexed(w.a.data(), w.b.data(), w.idx.data(), w.n, &sa, &sb);
    *sink += sa + sb;
  });
  time_it("axpy", 3 * dn * 8, [&] {
    ops.axpy(1e-9, w.a.data(), w.out.data(), w.n);
  });
  time_it("vsub", 3 * dn * 8, [&] {
    ops.vsub(w.out.data(), w.a.data(), w.b.data(), w.n);
  });
  time_it("gemv", (dn + static_cast<double>(w.rows + w.cols)) * 8, [&] {
    ops.gemv(w.a.data(), w.rows, w.cols, w.b.data(), 0.5, w.out.data());
    *sink += w.out[0];
  });
  time_it("squared_l2_rows", (dn + static_cast<double>(w.rows + w.cols)) * 8,
          [&] {
            ops.squared_l2_rows(w.a.data(), w.rows, w.cols, w.b.data(),
                                w.out.data());
            *sink += w.out[w.rows - 1];
          });
  time_it("hist_accumulate", 3 * dn * 8, [&] {
    ops.hist_accumulate(w.hist.data(), w.bins16.data(), w.idx.data(), w.n,
                        w.a.data(), w.b.data());
  });
  time_it("hist_subtract", 3 * static_cast<double>(w.hist.size()) * 8, [&] {
    ops.hist_subtract(w.hist.data(), w.hist.data() + 0, w.hist.size() / 2);
  });
  time_it("bin_index", dn * 8 + dn * 4, [&] {
    ops.bin_index(w.a.data(), w.n, -4.0, 4.0, 8.0 / 64.0, 64, w.out32.data());
  });
  time_it("sigmoid", 2 * dn * 8, [&] {
    ops.sigmoid(w.a.data(), w.out.data(), w.n);
    *sink += w.out[0];
  });
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nurd;

  const auto n =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "n", 262144));
  const int reps = static_cast<int>(bench::arg_long(argc, argv, "reps", 200));
  const auto cols =
      static_cast<std::size_t>(bench::arg_long(argc, argv, "cols", 16));
  bench::reject_unknown_args(argc, argv);

  Workset w;
  w.n = n;
  w.cols = cols;
  w.rows = n / cols;
  Rng rng(7);
  w.a.resize(n);
  w.b.resize(n);
  w.out.resize(n);
  w.idx.resize(n);
  w.bins16.resize(n);
  w.out32.resize(n);
  w.hist.assign(64 * kernel::kHistBinStride, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    w.a[i] = rng.normal();
    w.b[i] = rng.normal();
    w.idx[i] = i;
    w.bins16[i] = static_cast<std::uint16_t>(i % 64);
  }

  std::printf("bench_kernel: n=%zu reps=%d cols=%zu (gemv/l2_rows: %zux%zu)\n",
              n, reps, cols, w.rows, cols);

  double sink = 0.0;
  const auto timings = run_primitives(kernel::ops(), w, reps, &sink);
  std::printf("%-18s  %9s\n", "primitive", "GB/s");
  for (const auto& t : timings) {
    const double gbs =
        t.bytes_per_rep * reps / t.seconds / (1024.0 * 1024.0 * 1024.0);
    std::printf("%-18s  %9.2f\n", t.name, gbs);
  }

  volatile double guard = sink;
  (void)guard;
  bench::print_resource_report("bench_kernel");
  return 0;
}
