#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "kernel/kernel.h"

namespace nurd::ml {

namespace {

struct SplitCandidate {
  double gain = -std::numeric_limits<double>::infinity();
  std::size_t feature = 0;
  double threshold = 0.0;
  std::size_t bin = 0;  // histogram backend: split after this bin
};

double leaf_objective(double g, double h, double lambda) {
  return -0.5 * g * g / (h + lambda);
}

/// Calls `scan(f)` for every feature tried at one node: all of them in
/// order (no Rng draw, no list), or a colsample draw. Shared by both
/// backends so they consume the Rng identically.
template <typename Scan>
void for_node_features(std::size_t d, const TreeParams& params, Rng& rng,
                       Scan&& scan) {
  if (params.colsample >= 1.0) {
    for (std::size_t f = 0; f < d; ++f) scan(f);
    return;
  }
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(params.colsample * static_cast<double>(d))));
  for (const auto f : rng.sample_without_replacement(d, k)) scan(f);
}

/// Stable in-place partition of `seg[0, m)`: rows with `goes_left(r)` keep
/// their relative order at the front, the rest follow in theirs (staged
/// through `spill`, which holds at least m). Returns the left count.
template <typename Pred>
std::size_t stable_partition(std::size_t* seg, std::size_t m,
                             std::size_t* spill, Pred&& goes_left) {
  std::size_t n_left = 0, n_right = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t r = seg[i];
    if (goes_left(r)) {
      seg[n_left++] = r;
    } else {
      spill[n_right++] = r;
    }
  }
  std::copy(spill, spill + n_right, seg + n_left);
  return n_left;
}

/// Upper bound on a tree's node count, so one reserve covers the fit.
std::size_t max_nodes(int max_depth, std::size_t n_rows) {
  const int levels = std::clamp(max_depth, 0, 20) + 1;
  return std::min((std::size_t{1} << levels) - 1, 2 * n_rows - 1);
}

/// Quantile-sketch edges for one sorted value array: greedy bin packing at
/// ~n/max_bins rows per bin, cutting only between distinct values. With at
/// most `max_bins` distinct values every boundary gets an edge, making the
/// candidate set identical to exact greedy's.
std::vector<double> quantile_edges(const std::vector<double>& sorted,
                                   int max_bins) {
  std::vector<double> edges;
  const std::size_t n = sorted.size();
  if (n < 2) return edges;

  std::size_t distinct = 1;
  for (std::size_t i = 1; i < n; ++i) {
    distinct += sorted[i] != sorted[i - 1] ? 1 : 0;
  }

  // Every distinct value fits in its own bin: cut at every boundary so the
  // candidate set matches exact greedy's. This must not fall through to the
  // frequency-weighted pass below, which would starve low-count values
  // (e.g. a rare binary indicator) of their edge entirely.
  if (distinct <= static_cast<std::size_t>(max_bins)) {
    for (std::size_t i = 1; i < n; ++i) {
      if (sorted[i] != sorted[i - 1]) {
        edges.push_back(0.5 * (sorted[i - 1] + sorted[i]));
      }
    }
    return edges;
  }

  // More distinct values than bins: greedy packing at ~n/max_bins rows per
  // bin, cutting only between distinct values.
  const double target =
      static_cast<double>(n) / static_cast<double>(max_bins);
  const auto max_edges = static_cast<std::size_t>(max_bins - 1);
  double acc = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && sorted[j] == sorted[i]) ++j;
    acc += static_cast<double>(j - i);
    if (j < n && edges.size() < max_edges && acc >= target) {
      edges.push_back(0.5 * (sorted[i] + sorted[j]));
      acc = 0.0;
    }
    i = j;
  }
  return edges;
}

}  // namespace

bool histogram_enabled(const TreeParams& params, std::size_t n_rows) {
  switch (params.split) {
    case SplitMethod::kExact:
      return false;
    case SplitMethod::kHistogram:
      return true;
    case SplitMethod::kAuto:
      return n_rows >= params.exact_cutoff;
  }
  return false;
}

FeatureBinner::FeatureBinner(const Matrix& x,
                             std::span<const std::size_t> rows,
                             int max_bins) {
  NURD_CHECK(max_bins >= 2 && max_bins <= 4096,
             "max_bins must be in [2, 4096]");
  NURD_CHECK(!rows.empty(), "cannot bin from zero rows");
  n_rows_ = x.rows();
  n_cols_ = x.cols();
  edges_.resize(n_cols_);
  bins_.resize(n_cols_ * n_rows_);

  for (std::size_t f = 0; f < n_cols_; ++f) {
    const auto col = x.col_view(f);
    std::vector<double> vals;
    vals.reserve(rows.size());
    for (const auto r : rows) vals.push_back(col[r]);
    std::sort(vals.begin(), vals.end());
    edges_[f] = quantile_edges(vals, max_bins);

    const auto& edges = edges_[f];
    auto* out = bins_.data() + f * n_rows_;
    for (std::size_t r = 0; r < n_rows_; ++r) {
      // Bin = index of the first edge ≥ value, so x ≤ edge(b) ⟺ bin ≤ b.
      const auto it =
          std::lower_bound(edges.begin(), edges.end(), col[r]);
      out[r] = static_cast<std::uint16_t>(it - edges.begin());
    }
  }
}

void FeatureBinner::append_rows(const Matrix& x) {
  NURD_CHECK(n_cols_ == x.cols(), "binner width must match the matrix");
  NURD_CHECK(x.rows() >= n_rows_, "append_rows cannot shrink the binner");
  const std::size_t n_new = x.rows();
  if (n_new == n_rows_) return;

  // Column-major layout (the histogram build's locality) means growing the
  // row count re-strides every feature slice: one O(n·d) copy, but zero
  // sorting and zero edge work — the quantile sketch stays frozen.
  std::vector<std::uint16_t> grown(n_cols_ * n_new);
  for (std::size_t f = 0; f < n_cols_; ++f) {
    const auto* src = bins_.data() + f * n_rows_;
    auto* dst = grown.data() + f * n_new;
    std::copy(src, src + n_rows_, dst);
    const auto& edges = edges_[f];
    const auto col = x.col_view(f);
    for (std::size_t r = n_rows_; r < n_new; ++r) {
      const auto it = std::lower_bound(edges.begin(), edges.end(), col[r]);
      dst[r] = static_cast<std::uint16_t>(it - edges.begin());
    }
  }
  bins_ = std::move(grown);
  n_rows_ = n_new;
}

void FeatureBinner::insert_rows(const Matrix& x,
                                std::span<const std::size_t> inserted) {
  NURD_CHECK(n_cols_ == x.cols(), "binner width must match the matrix");
  NURD_CHECK(x.rows() == n_rows_ + inserted.size(),
             "inserted count must account for every new row");
  const std::size_t n_new = x.rows();
  if (inserted.empty()) return;
  // Validate the splice map before the merge-copy walks the old slices: an
  // unsorted or duplicated position would overrun them.
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    NURD_CHECK(inserted[i] < n_new && (i == 0 || inserted[i] > inserted[i - 1]),
               "inserted positions must be strictly ascending and in range");
  }

  std::vector<std::uint16_t> grown(n_cols_ * n_new);
  for (std::size_t f = 0; f < n_cols_; ++f) {
    const auto* src = bins_.data() + f * n_rows_;
    auto* dst = grown.data() + f * n_new;
    const auto& edges = edges_[f];
    const auto col = x.col_view(f);
    std::size_t old_r = 0;
    std::size_t next = 0;
    for (std::size_t r = 0; r < n_new; ++r) {
      if (next < inserted.size() && inserted[next] == r) {
        const auto it = std::lower_bound(edges.begin(), edges.end(), col[r]);
        dst[r] = static_cast<std::uint16_t>(it - edges.begin());
        ++next;
      } else {
        dst[r] = src[old_r++];
      }
    }
  }
  bins_ = std::move(grown);
  n_rows_ = n_new;
}

void FeatureBinner::rebin_rows(const Matrix& x,
                               std::span<const std::size_t> changed) {
  NURD_CHECK(n_cols_ == x.cols(), "binner width must match the matrix");
  for (std::size_t f = 0; f < n_cols_; ++f) {
    const auto& edges = edges_[f];
    auto* out = bins_.data() + f * n_rows_;
    for (const auto r : changed) {
      NURD_CHECK(r < n_rows_, "rebin_rows row out of range");
      const auto it = std::lower_bound(edges.begin(), edges.end(), x(r, f));
      out[r] = static_cast<std::uint16_t>(it - edges.begin());
    }
  }
}

void ExactOrder::assign(const Matrix& x, std::span<const std::size_t> rows) {
  NURD_CHECK(!rows.empty(), "cannot presort zero rows");
  n_ = rows.size();
  d_ = x.cols();
  sorted_.resize((d_ + 1) * n_);
  work_.resize(sorted_.size());
  spill_.resize(n_);
  left_.resize(x.rows());
  for (std::size_t i = 0; i < n_; ++i) {
    NURD_CHECK(rows[i] < x.rows(), "presorted row out of range");
    sorted_[i] = rows[i];
  }
  // The chain: feature f's order is the stable sort of feature f−1's.
  for (std::size_t f = 0; f < d_; ++f) {
    auto* const prev = sorted_.data() + f * n_;
    auto* const seg = prev + n_;
    std::copy(prev, prev + n_, seg);
    std::stable_sort(seg, seg + n_, [&](std::size_t a, std::size_t b) {
      return x(a, f) < x(b, f);
    });
  }
}

std::int32_t RegressionTree::push_leaf(double g_total, double h_total,
                                       double lambda, int depth) {
  Node leaf;
  leaf.value = -g_total / (h_total + lambda);
  leaf.depth = depth;
  nodes_.push_back(leaf);
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

// The slot is reserved before the children recurse, so they land after it.
std::int32_t RegressionTree::push_split(std::size_t feature, double threshold,
                                        int depth) {
  Node node;
  node.value = threshold;
  node.feature = static_cast<std::int32_t>(feature);
  node.depth = depth;
  nodes_.push_back(node);
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

// Exact-backend fit state. The order's work_ holds the (d+1) presorted
// segments, and every node owns the same [begin, end) range of each.
struct RegressionTree::ExactContext {
  const Matrix& x;
  ExactOrder& order;
  std::span<const double> grad;
  std::span<const double> hess;
  const TreeParams& params;
  Rng& rng;
};

std::int32_t RegressionTree::build_exact(ExactContext& ctx, std::size_t begin,
                                         std::size_t end, int depth) {
  const auto& params = ctx.params;
  const Matrix& x = ctx.x;
  ExactOrder& order = ctx.order;
  const std::size_t n = order.n_;
  const std::size_t m = end - begin;
  std::size_t* const work = order.work_.data();

  double g_total = 0.0, h_total = 0.0;
  kernel::ops().pair_sum_indexed(ctx.grad.data(), ctx.hess.data(),
                                 work + begin, m, &g_total, &h_total);
  if (depth >= params.max_depth || m < 2) {
    return push_leaf(g_total, h_total, params.lambda, depth);
  }

  const double parent_obj = leaf_objective(g_total, h_total, params.lambda);
  SplitCandidate best;
  for_node_features(order.d_, params, ctx.rng, [&](std::size_t f) {
    const std::size_t* const sorted = work + (f + 1) * n + begin;
    double g_left = 0.0, h_left = 0.0;
    for (std::size_t i = 0; i + 1 < m; ++i) {
      g_left += ctx.grad[sorted[i]];
      h_left += ctx.hess[sorted[i]];
      const double v = x(sorted[i], f);
      const double v_next = x(sorted[i + 1], f);
      if (v_next <= v) continue;  // can't split between equal values
      const double g_right = g_total - g_left;
      const double h_right = h_total - h_left;
      if (h_left < params.min_child_weight ||
          h_right < params.min_child_weight) {
        continue;
      }
      const double gain = parent_obj -
                          leaf_objective(g_left, h_left, params.lambda) -
                          leaf_objective(g_right, h_right, params.lambda);
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = f;
        best.threshold = 0.5 * (v + v_next);
      }
    }
  });
  if (best.gain <= params.gamma) {
    return push_leaf(g_total, h_total, params.lambda, depth);
  }

  std::uint8_t* const left = order.left_.data();
  std::size_t n_left = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t r = work[i];
    left[r] = x(r, best.feature) <= best.threshold ? 1 : 0;
    n_left += left[r];
  }
  if (n_left == 0 || n_left == m) {
    return push_leaf(g_total, h_total, params.lambda, depth);
  }
  for (std::size_t seg = 0; seg <= order.d_; ++seg) {
    stable_partition(work + seg * n + begin, m, order.spill_.data(),
                     [left](std::size_t r) { return left[r] != 0; });
  }

  const auto self = push_split(best.feature, best.threshold, depth);
  const auto l = build_exact(ctx, begin, begin + n_left, depth + 1);
  const auto r = build_exact(ctx, begin + n_left, end, depth + 1);
  nodes_[static_cast<std::size_t>(self)].left = l;
  nodes_[static_cast<std::size_t>(self)].right = r;
  return self;
}

// Histogram-backend fit state. Histograms are flat aligned double arrays
// with kernel::kHistBinStride slots per bin — (G, H, count, pad), the pad
// keeping each bin on a 32-byte boundary (kernel.h) — accumulated and
// sibling-subtracted through the kernel layer. offset[f]*kHistBinStride
// locates feature f's bins. The root rows are partitioned in place per node,
// and histograms a node is done with go to `spare` for the next one to reuse.
struct RegressionTree::HistContext {
  const FeatureBinner& binner;
  std::span<const double> grad;
  std::span<const double> hess;
  const TreeParams& params;
  Rng& rng;
  std::vector<std::size_t> offset;  // per-feature bin offset; back() = total
  std::vector<std::size_t> rows;
  std::vector<std::size_t> spill;
  std::vector<AlignedVector<double>> spare;

  void recycle(AlignedVector<double>& hist) {
    if (!hist.empty()) spare.push_back(std::move(hist));
  }
};

std::int32_t RegressionTree::build_hist(HistContext& ctx, std::size_t begin,
                                        std::size_t end, int depth,
                                        AlignedVector<double>&& hist) {
  const auto& params = ctx.params;
  std::size_t* const rows = ctx.rows.data() + begin;
  const std::size_t m = end - begin;
  double g_total = 0.0, h_total = 0.0;
  kernel::ops().pair_sum_indexed(ctx.grad.data(), ctx.hess.data(), rows, m,
                                 &g_total, &h_total);

  const auto make_leaf = [&]() {
    ctx.recycle(hist);
    return push_leaf(g_total, h_total, params.lambda, depth);
  };
  if (depth >= params.max_depth || m < 2) return make_leaf();

  const FeatureBinner& binner = ctx.binner;
  if (hist.empty()) hist = compute_histogram(ctx, rows, m);

  const double parent_obj = leaf_objective(g_total, h_total, params.lambda);
  const double n_node = static_cast<double>(m);
  SplitCandidate best;
  for_node_features(binner.cols(), params, ctx.rng, [&](std::size_t f) {
    const std::size_t nb = binner.bin_count(f);
    if (nb < 2) return;  // constant feature
    const double* bins = hist.data() + ctx.offset[f] * kernel::kHistBinStride;
    double g_left = 0.0, h_left = 0.0, n_left = 0.0;
    for (std::size_t b = 0; b + 1 < nb; ++b) {
      g_left += bins[b * kernel::kHistBinStride];
      h_left += bins[b * kernel::kHistBinStride + 1];
      n_left += bins[b * kernel::kHistBinStride + 2];
      if (n_left == 0.0) continue;        // empty prefix: same as no split
      if (n_left == n_node) break;        // empty suffix: no more candidates
      const double g_right = g_total - g_left;
      const double h_right = h_total - h_left;
      if (h_left < params.min_child_weight ||
          h_right < params.min_child_weight) {
        continue;
      }
      const double gain = parent_obj -
                          leaf_objective(g_left, h_left, params.lambda) -
                          leaf_objective(g_right, h_right, params.lambda);
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = f;
        best.threshold = binner.edge(f, b);
        best.bin = b;
      }
    }
  });
  if (best.gain <= params.gamma) return make_leaf();

  const std::size_t n_left = stable_partition(
      rows, m, ctx.spill.data(), [&](std::size_t r) {
        return binner.bin(best.feature, r) <= best.bin;
      });
  if (n_left == 0 || n_left == m) return make_leaf();

  const auto self = push_split(best.feature, best.threshold, depth);
  AlignedVector<double> left_hist, right_hist;
  if (depth + 1 < params.max_depth) {
    // Sibling subtraction: accumulate only the smaller child; the larger
    // child's histogram is parent − smaller, reusing the parent's storage.
    const bool left_small = n_left <= m - n_left;
    AlignedVector<double> small_hist =
        left_small ? compute_histogram(ctx, rows, n_left)
                   : compute_histogram(ctx, rows + n_left, m - n_left);
    kernel::ops().hist_subtract(hist.data(), small_hist.data(), hist.size());
    left_hist = std::move(left_small ? small_hist : hist);
    right_hist = std::move(left_small ? hist : small_hist);
  } else {
    ctx.recycle(hist);
  }

  const auto l = build_hist(ctx, begin, begin + n_left, depth + 1,
                            std::move(left_hist));
  const auto r = build_hist(ctx, begin + n_left, end, depth + 1,
                            std::move(right_hist));
  nodes_[static_cast<std::size_t>(self)].left = l;
  nodes_[static_cast<std::size_t>(self)].right = r;
  return self;
}

// Accumulates the (G, H, count) histogram of `rows` for every feature, on
// the calling thread: a fit runs serially on the lane that owns its job, so
// concurrency lives in the executor only. Each feature accumulates in row
// order through the kernel layer (per-bin adds are serial in row order;
// see kernel.h), so the result is bit-identical to the scalar loop.
AlignedVector<double> RegressionTree::compute_histogram(
    HistContext& ctx, const std::size_t* rows, std::size_t count) {
  const FeatureBinner& binner = ctx.binner;
  AlignedVector<double> hist;
  if (!ctx.spare.empty()) {
    hist = std::move(ctx.spare.back());
    ctx.spare.pop_back();
    std::fill(hist.begin(), hist.end(), 0.0);
  } else {
    hist.assign(ctx.offset.back() * kernel::kHistBinStride, 0.0);
  }

  const auto& kops = kernel::ops();
  for (std::size_t f = 0; f < binner.cols(); ++f) {
    double* bins = hist.data() + ctx.offset[f] * kernel::kHistBinStride;
    kops.hist_accumulate(bins, binner.bin_column(f), rows, count,
                         ctx.grad.data(), ctx.hess.data());
  }
  return hist;
}

void RegressionTree::fit(const Matrix& x, std::span<const double> grad,
                         std::span<const double> hess,
                         std::span<const std::size_t> rows,
                         const TreeParams& params, Rng& rng) {
  NURD_CHECK(!rows.empty(), "cannot fit a tree on zero rows");
  if (histogram_enabled(params, rows.size())) {
    const FeatureBinner binner(x, rows, params.max_bins);
    fit(x, binner, grad, hess, rows, params, rng);
    return;
  }
  ExactOrder order(x, rows);
  fit(x, order, grad, hess, params, rng);
}

void RegressionTree::fit(const Matrix& x, ExactOrder& order,
                         std::span<const double> grad,
                         std::span<const double> hess,
                         const TreeParams& params, Rng& rng) {
  NURD_CHECK(grad.size() == x.rows() && hess.size() == x.rows(),
             "grad/hess length must match row count");
  NURD_CHECK(order.n_ > 0 && order.d_ == x.cols() &&
                 order.left_.size() == x.rows(),
             "the exact order must be presorted from this matrix");
  nodes_.clear();
  nodes_.reserve(max_nodes(params.max_depth, order.n_));
  std::copy(order.sorted_.begin(), order.sorted_.end(), order.work_.begin());
  ExactContext ctx{x, order, grad, hess, params, rng};
  build_exact(ctx, 0, order.n_, 0);
}

void RegressionTree::fit(const Matrix& x, const FeatureBinner& binner,
                         std::span<const double> grad,
                         std::span<const double> hess,
                         std::span<const std::size_t> rows,
                         const TreeParams& params, Rng& rng) {
  NURD_CHECK(grad.size() == x.rows() && hess.size() == x.rows(),
             "grad/hess length must match row count");
  NURD_CHECK(!rows.empty(), "cannot fit a tree on zero rows");
  NURD_CHECK(binner.rows() == x.rows() && binner.cols() == x.cols(),
             "binner shape must match the feature matrix");
  nodes_.clear();
  nodes_.reserve(max_nodes(params.max_depth, rows.size()));

  HistContext ctx{binner, grad, hess, params, rng, {}, {}, {}, {}};
  ctx.offset.resize(binner.cols() + 1, 0);
  for (std::size_t f = 0; f < binner.cols(); ++f) {
    ctx.offset[f + 1] = ctx.offset[f] + binner.bin_count(f);
  }
  ctx.rows.assign(rows.begin(), rows.end());
  ctx.spill.resize(rows.size());
  build_hist(ctx, 0, rows.size(), 0, {});
}

double RegressionTree::predict(std::span<const double> row) const {
  if (nodes_.empty()) return 0.0;
  std::size_t i = 0;
  while (nodes_[i].feature >= 0) {
    const auto& n = nodes_[i];
    i = static_cast<std::size_t>(
        row[static_cast<std::size_t>(n.feature)] <= n.value ? n.left
                                                            : n.right);
  }
  return nodes_[i].value;
}

std::size_t RegressionTree::leaf_count() const {
  std::size_t c = 0;
  for (const auto& n : nodes_) c += n.feature < 0 ? 1 : 0;
  return c;
}

int RegressionTree::depth() const {
  int d = 0;
  for (const auto& n : nodes_) d = std::max(d, n.depth);
  return d;
}

}  // namespace nurd::ml
