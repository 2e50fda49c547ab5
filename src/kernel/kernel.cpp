#include "kernel/kernel.h"

#include "common/stats.h"

namespace nurd::kernel {

namespace {

// Each primitive is the EXACT scalar loop its call sites ran before they
// called the kernel layer — same accumulation order, same operations — so
// results are bit-identical to those loops. Do not "optimize" these (no
// reassociation, no FMA): tests/golden/fingerprints.json pins their bits.

double ref_dot(double init, const double* a, const double* b, std::size_t n) {
  double s = init;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double ref_dot_sub(double init, const double* a, const double* b,
                   std::size_t n) {
  double s = init;
  for (std::size_t i = 0; i < n; ++i) s -= a[i] * b[i];
  return s;
}

double ref_squared_l2(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

void ref_pair_sum_indexed(const double* a, const double* b,
                          const std::size_t* idx, std::size_t n,
                          double* sum_a, double* sum_b) {
  double sa = 0.0, sb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sa += a[idx[i]];
    sb += b[idx[i]];
  }
  *sum_a = sa;
  *sum_b = sb;
}

void ref_axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ref_vsub(double* out, const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void ref_gemv(const double* a, std::size_t rows, std::size_t cols,
              const double* x, double bias, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = ref_dot(bias, a + r * cols, x, cols);
  }
}

void ref_syrk_rank1_upper(double* h, std::size_t ld, const double* row,
                          std::size_t d, double v) {
  for (std::size_t j = 0; j < d; ++j) {
    const double vj = v * row[j];
    double* hrow = h + j * ld;
    for (std::size_t k = j; k < d; ++k) hrow[k] += vj * row[k];
  }
}

void ref_squared_l2_rows(const double* a, std::size_t rows, std::size_t cols,
                         const double* x, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = ref_squared_l2(a + r * cols, x, cols);
  }
}

void ref_hist_accumulate(double* bins, const std::uint16_t* bin_of_row,
                         const std::size_t* rows, std::size_t n,
                         const double* grad, const double* hess) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = rows[i];
    double* bin = bins + std::size_t{bin_of_row[r]} * kHistBinStride;
    bin[0] += grad[r];
    bin[1] += hess[r];
    bin[2] += 1.0;
  }
}

void ref_hist_subtract(double* parent, const double* child, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) parent[k] -= child[k];
}

void ref_bin_index(const double* values, std::size_t n, double lo, double hi,
                   double width, std::size_t n_bins, std::uint32_t* out) {
  const auto last = static_cast<std::uint32_t>(n_bins - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values[i];
    if (v <= lo) {
      out[i] = 0;
    } else if (v >= hi) {
      out[i] = last;
    } else {
      const auto b = static_cast<std::uint32_t>((v - lo) / width);
      out[i] = b < last ? b : last;
    }
  }
}

void ref_sigmoid(const double* z, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = nurd::sigmoid(z[i]);
}

constexpr KernelOps kOps = {
    .dot = ref_dot,
    .dot_sub = ref_dot_sub,
    .squared_l2 = ref_squared_l2,
    .pair_sum_indexed = ref_pair_sum_indexed,
    .axpy = ref_axpy,
    .vsub = ref_vsub,
    .gemv = ref_gemv,
    .syrk_rank1_upper = ref_syrk_rank1_upper,
    .squared_l2_rows = ref_squared_l2_rows,
    .hist_accumulate = ref_hist_accumulate,
    .hist_subtract = ref_hist_subtract,
    .bin_index = ref_bin_index,
    .sigmoid = ref_sigmoid,
};

}  // namespace

const KernelOps& ops() { return kOps; }

const char* backend_name() { return "reference"; }

}  // namespace nurd::kernel
