// Kernel primitives for the ML hot loops.
//
// Every refit hot path — histogram accumulation and sibling subtraction in
// the tree builder, the Newton-step products in the logistic solver, batched
// score/sigmoid/loss-gradient updates in the boosting engine, and the
// squared-L2 distance kernels behind kNN / k-means — calls these primitives
// through one constant table instead of open-coding scalar loops, so each
// loop is written, tested and timed (bench_kernel) in one place.
//
// There is one implementation: portable scalar code. Each primitive keeps
// the exact floating-point accumulation order of the loops it replaced, so
// results are bit-exact and the same on every machine and at any thread
// count; tests/golden/fingerprints.json pins them end to end.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nurd::kernel {

/// Doubles per histogram bin in the tree builder's flat histograms:
/// (G, H, count, pad). In the 32-byte aligned histogram storage
/// (common/aligned.h) the pad keeps every bin on a 32-byte boundary, so no
/// bin straddles a 64-byte cache line and a bin's offset is a shift.
inline constexpr std::size_t kHistBinStride = 4;

/// The primitives. Pointers need no particular alignment. n == 0 is valid
/// everywhere and writes no array element (pair_sum_indexed still stores
/// its two zero sums).
struct KernelOps {
  // ---- reductions (sequential from `init` in index order) ----
  /// init + Σ a[i]·b[i]
  double (*dot)(double init, const double* a, const double* b, std::size_t n);
  /// init − Σ a[i]·b[i] (the Cholesky/solve inner-loop shape)
  double (*dot_sub)(double init, const double* a, const double* b,
                    std::size_t n);
  /// Σ (a[i]−b[i])²
  double (*squared_l2)(const double* a, const double* b, std::size_t n);
  /// *sum_a = Σ a[idx[i]], *sum_b = Σ b[idx[i]] — the (G, H) node totals.
  void (*pair_sum_indexed)(const double* a, const double* b,
                           const std::size_t* idx, std::size_t n,
                           double* sum_a, double* sum_b);

  // ---- elementwise ----
  /// y[i] += alpha·x[i]
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  /// out[i] = a[i] − b[i]
  void (*vsub)(double* out, const double* a, const double* b, std::size_t n);

  // ---- small dense matrix products ----
  /// out[r] = bias + Σ_c a[r·cols + c]·x[c]  (row-major A, one dot per row)
  void (*gemv)(const double* a, std::size_t rows, std::size_t cols,
               const double* x, double bias, double* out);
  /// Rank-1 SYRK-lite update of a row-major symmetric matrix's upper
  /// triangle: h[j·ld + k] += (v·row[j])·row[k] for 0 ≤ j ≤ k < d.
  void (*syrk_rank1_upper)(double* h, std::size_t ld, const double* row,
                           std::size_t d, double v);
  /// out[r] = Σ_c (a[r·cols + c] − x[c])²  (batched squared-L2: kNN, k-means)
  void (*squared_l2_rows)(const double* a, std::size_t rows, std::size_t cols,
                          const double* x, double* out);

  // ---- histogram (kHistBinStride-strided (G, H, count, pad) bins) ----
  /// For each r in rows: bins[bin_of_row[r]·4 + {0,1,2}] += {grad[r],
  /// hess[r], 1.0}, in row order.
  void (*hist_accumulate)(double* bins, const std::uint16_t* bin_of_row,
                          const std::size_t* rows, std::size_t n,
                          const double* grad, const double* hess);
  /// parent[k] −= child[k] (sibling subtraction; n counts doubles)
  void (*hist_subtract)(double* parent, const double* child, std::size_t n);

  // ---- fixed-width binning (common/histogram.cpp) ----
  /// out[i] = Histogram::bin_of(values[i]) for an equal-width histogram:
  /// v ≤ lo → 0, v ≥ hi → n_bins−1, else min(⌊(v−lo)/width⌋, n_bins−1).
  void (*bin_index)(const double* values, std::size_t n, double lo, double hi,
                    double width, std::size_t n_bins, std::uint32_t* out);

  // ---- nonlinear ----
  /// out[i] = 1/(1+e^(−z[i])), bit-identical to common/stats.h sigmoid().
  void (*sigmoid)(const double* z, double* out, std::size_t n);
};

/// The primitive table. Hot loops hoist `const auto& k = kernel::ops();`
/// out of the loop.
const KernelOps& ops();

/// "reference": the kernel name benches and perfbench record in their
/// metadata.
const char* backend_name();

}  // namespace nurd::kernel
