// Kernel primitive tests: every primitive against an inline scalar loop,
// bitwise, across lengths (including n == 0, which must write nothing), the
// documented reduction order, sigmoid and binning semantics, and NaN/inf
// propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "kernel/kernel.h"

namespace nurd::kernel {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

// Lengths: empty, short, odd remainders, and a large block.
const std::vector<std::size_t> kSizes = {0, 1, 3, 4, 5, 7, 8, 31, 64, 1000};

// Deterministic value streams (no global RNG state between tests).
double lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  // Map the top bits into roughly [-4, 4) with a fractional part.
  return static_cast<double>(static_cast<std::int64_t>(s >> 11)) * 0x1p-50;
}

std::vector<double> random_block(std::size_t n, std::uint64_t seed) {
  std::uint64_t s = seed;
  std::vector<double> v(n);
  for (auto& x : v) x = lcg(s);
  return v;
}

// ---------------------------------------------------------------------------
// Every primitive against its scalar loop, bitwise.
// ---------------------------------------------------------------------------

// A signalling NaN: no primitive computes it, and arithmetic on it quiets
// it, so a slot that still holds these bits was neither written nor updated.
const double kPoison =
    std::bit_cast<double>(std::uint64_t{0x7ff4deadbeefcafe});
// Poisoned slots after each output buffer, to catch writes past the end.
constexpr std::size_t kGuard = 4;

// `live` values from `seed` followed by kGuard poisoned slots; live == 0
// gives a fully poisoned buffer.
std::vector<double> guarded(std::size_t live, std::uint64_t seed) {
  auto v = random_block(live, seed);
  v.resize(live + kGuard, kPoison);
  return v;
}

std::vector<double> poisoned(std::size_t live) {
  return std::vector<double>(live + kGuard, kPoison);
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [](double x) { return std::bit_cast<std::uint64_t>(x); });
  return out;
}

// One primitive's output buffer before the call, after the kernel call, and
// after the scalar loop run on a copy of the same inputs.
struct Outputs {
  std::vector<double> before, kernel, scalar;
};

Outputs from(std::vector<double> before) {
  return {before, before, std::move(before)};
}

// Indices into a pool of 2n + 8 rows, with repeats once n is large.
std::vector<std::size_t> index_list(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = (i * 7 + 3) % (2 * n + 8);
  return idx;
}

struct PrimitiveCase {
  const char* name;
  Outputs (*run)(std::size_t n);
};

const PrimitiveCase kPrimitiveCases[] = {
    {"pair_sum_indexed",
     [](std::size_t n) {
       const auto a = random_block(2 * n + 8, 13 + n);
       const auto b = random_block(2 * n + 8, 17 + n);
       const auto idx = index_list(n);
       // The two sums are the outputs; they start at the n == 0 result,
       // which the call always stores.
       auto out = poisoned(2);
       out[0] = out[1] = 0.0;
       auto o = from(out);
       ops().pair_sum_indexed(a.data(), b.data(), idx.data(), n,
                              &o.kernel[0], &o.kernel[1]);
       for (std::size_t i = 0; i < n; ++i) {
         o.scalar[0] += a[idx[i]];
         o.scalar[1] += b[idx[i]];
       }
       return o;
     }},
    {"axpy",
     [](std::size_t n) {
       const auto x = random_block(n, 3 + n);
       auto o = from(guarded(n, 9 + n));
       ops().axpy(0.37, x.data(), o.kernel.data(), n);
       for (std::size_t i = 0; i < n; ++i) o.scalar[i] += 0.37 * x[i];
       return o;
     }},
    {"vsub",
     [](std::size_t n) {
       const auto a = random_block(n, 19 + n);
       const auto b = random_block(n, 29 + n);
       auto o = from(poisoned(n));
       ops().vsub(o.kernel.data(), a.data(), b.data(), n);
       for (std::size_t i = 0; i < n; ++i) o.scalar[i] = a[i] - b[i];
       return o;
     }},
    {"gemv",
     [](std::size_t rows) {
       const std::size_t cols = 1 + rows % 6;
       const auto a = random_block(rows * cols, 41 + rows);
       const auto x = random_block(cols, 43 + rows);
       auto o = from(poisoned(rows));
       ops().gemv(a.data(), rows, cols, x.data(), 0.75, o.kernel.data());
       for (std::size_t r = 0; r < rows; ++r) {
         double s = 0.75;
         for (std::size_t c = 0; c < cols; ++c) s += a[r * cols + c] * x[c];
         o.scalar[r] = s;
       }
       return o;
     }},
    {"syrk_rank1_upper",
     [](std::size_t d) {
       const std::size_t ld = d + 1;  // embedded in a bordered matrix
       const auto row = random_block(d, 53 + d);
       auto o = from(guarded(ld * ld, 59 + d));
       ops().syrk_rank1_upper(o.kernel.data(), ld, row.data(), d, 1.7);
       for (std::size_t j = 0; j < d; ++j) {
         for (std::size_t k = j; k < d; ++k) {
           o.scalar[j * ld + k] += (1.7 * row[j]) * row[k];
         }
       }
       return o;
     }},
    {"squared_l2_rows",
     [](std::size_t rows) {
       const std::size_t cols = 1 + rows % 6;
       const auto a = random_block(rows * cols, 61 + rows);
       const auto x = random_block(cols, 67 + rows);
       auto o = from(poisoned(rows));
       ops().squared_l2_rows(a.data(), rows, cols, x.data(),
                             o.kernel.data());
       for (std::size_t r = 0; r < rows; ++r) {
         double s = 0.0;
         for (std::size_t c = 0; c < cols; ++c) {
           const double diff = a[r * cols + c] - x[c];
           s += diff * diff;
         }
         o.scalar[r] = s;
       }
       return o;
     }},
    {"hist_accumulate",
     [](std::size_t n) {
       constexpr std::size_t kBins = 13;
       const std::size_t pool = 2 * n + 8;
       const auto grad = random_block(pool, 71 + n);
       const auto hess = random_block(pool, 73 + n);
       std::vector<std::uint16_t> bin_of(pool);
       for (std::size_t i = 0; i < pool; ++i) {
         bin_of[i] = static_cast<std::uint16_t>((i * 5) % kBins);
       }
       const auto rows = index_list(n);
       auto o = from(guarded(kBins * kHistBinStride, 79 + n));
       ops().hist_accumulate(o.kernel.data(), bin_of.data(), rows.data(), n,
                             grad.data(), hess.data());
       for (const std::size_t r : rows) {
         double* bin = o.scalar.data() + bin_of[r] * kHistBinStride;
         bin[0] += grad[r];
         bin[1] += hess[r];
         bin[2] += 1.0;
       }
       return o;
     }},
    {"hist_subtract",
     [](std::size_t n) {
       const auto child = random_block(n, 83 + n);
       auto o = from(guarded(n, 89 + n));
       ops().hist_subtract(o.kernel.data(), child.data(), n);
       for (std::size_t k = 0; k < n; ++k) o.scalar[k] -= child[k];
       return o;
     }},
};

TEST(KernelReference, PrimitivesMatchScalarLoopsBitwise) {
  for (const auto& c : kPrimitiveCases) {
    for (const auto n : kSizes) {
      SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n));
      const auto o = c.run(n);
      EXPECT_EQ(bits(o.kernel), bits(o.scalar));
      if (n == 0) {
        EXPECT_EQ(bits(o.kernel), bits(o.before));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reduction order, sigmoid and binning semantics the call sites rely on.
// ---------------------------------------------------------------------------

TEST(KernelReference, DotAccumulatesFromInitInIndexOrder) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {4.0, 5.0, 6.0};
  // Exactly the scalar loop: s = init; s += a[i]*b[i].
  double expect = 0.5;
  for (std::size_t i = 0; i < a.size(); ++i) expect += a[i] * b[i];
  EXPECT_EQ(ops().dot(0.5, a.data(), b.data(), a.size()), expect);
  EXPECT_EQ(ops().dot(0.5, a.data(), b.data(), 0), 0.5);
}

TEST(KernelReference, DotSubDeductsSequentially) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {4.0, 5.0, 6.0};
  double expect = 100.0;
  for (std::size_t i = 0; i < a.size(); ++i) expect -= a[i] * b[i];
  EXPECT_EQ(ops().dot_sub(100.0, a.data(), b.data(), a.size()), expect);
}

TEST(KernelReference, SigmoidMatchesStatsFormula) {
  for (const double z : {-800.0, -10.0, -1e-3, 0.0, 1e-3, 10.0, 800.0}) {
    double out = -1.0;
    ops().sigmoid(&z, &out, 1);
    // The overflow-safe two-branch form from common/stats.cpp.
    const double expect =
        z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                 : std::exp(z) / (1.0 + std::exp(z));
    EXPECT_EQ(out, expect) << "z=" << z;
  }
}

TEST(KernelReference, BinIndexMatchesHistogramBinOf) {
  const double lo = -1.0, hi = 3.0;
  const std::size_t n_bins = 8;
  const double width = (hi - lo) / static_cast<double>(n_bins);
  auto bin_of = [&](double v) -> std::uint32_t {
    if (v <= lo) return 0;
    if (v >= hi) return static_cast<std::uint32_t>(n_bins - 1);
    const auto b = static_cast<std::size_t>((v - lo) / width);
    return static_cast<std::uint32_t>(std::min(b, n_bins - 1));
  };
  std::vector<double> values = {-5.0, -1.0, -0.999, 0.0,  0.5, 1.0,
                                1.5,  2.0,  2.999,  3.0,  7.0, lo + width,
                                lo + 2 * width,     hi - 1e-12};
  std::vector<std::uint32_t> out(values.size(), 999);
  ops().bin_index(values.data(), values.size(), lo, hi, width, n_bins,
                  out.data());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(out[i], bin_of(values[i])) << "v=" << values[i];
  }
}

// ---------------------------------------------------------------------------
// NaN / inf propagation.
// ---------------------------------------------------------------------------

TEST(KernelSpecials, ReductionsPropagateNaNAndInf) {
  const auto& k = ops();
  const std::vector<double> a = {1.0, kNaN, 2.0, 3.0, 4.0};
  const std::vector<double> ones(a.size(), 1.0);
  EXPECT_TRUE(std::isnan(k.dot(0.0, a.data(), ones.data(), a.size())));
  EXPECT_TRUE(std::isnan(k.dot_sub(0.0, a.data(), ones.data(), a.size())));
  EXPECT_TRUE(std::isnan(k.squared_l2(a.data(), ones.data(), a.size())));
  const std::vector<double> b = {1.0, kInf, 2.0, 3.0, 4.0};
  EXPECT_EQ(k.dot(0.0, b.data(), ones.data(), b.size()), kInf);
  EXPECT_EQ(k.squared_l2(b.data(), ones.data(), b.size()), kInf);
}

TEST(KernelSpecials, ElementwisePropagateNaN) {
  const auto& k = ops();
  const std::vector<double> x = {kNaN, 1.0, 2.0, 3.0, kNaN};
  std::vector<double> y(x.size(), 0.0);
  k.axpy(1.0, x.data(), y.data(), x.size());
  EXPECT_TRUE(std::isnan(y[0]) && std::isnan(y[4]));
  EXPECT_EQ(y[2], 2.0);

  std::vector<double> s(x.size(), -1.0);
  k.sigmoid(x.data(), s.data(), x.size());
  EXPECT_TRUE(std::isnan(s[0]) && std::isnan(s[4]));
  EXPECT_NEAR(s[1], 1.0 / (1.0 + std::exp(-1.0)), 1e-12);
}

}  // namespace
}  // namespace nurd::kernel
