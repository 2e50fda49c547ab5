// Regression tree fit to per-sample (gradient, Hessian) pairs — the weak
// learner of the boosting engine. Split gain and leaf values follow the
// XGBoost formulation (Chen & Guestrin 2016):
//   leaf value  w* = −G / (H + λ)
//   split gain  ½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ
//
// Two split-finding backends share that formulation:
//   * exact greedy — scans every distinct-value boundary of every feature in
//     sorted order. The sort happens once per boosting call (ExactOrder):
//     O(d · n log n) up front, then O(d · n) per tree level, because each
//     node stable-partitions its presorted segments in place instead of
//     re-sorting. Best for small fits;
//   * histogram (LightGBM-style) — quantile-bins each feature once per fit,
//     accumulates per-bin (G, H) sums per node, and scans bin boundaries;
//     O(d · n) per tree level, with the sibling-subtraction trick (child
//     histogram = parent − other child) halving construction cost.
// Both backends are deterministic: identical inputs and Rng state produce a
// bit-identical tree. A fit runs serially on the calling thread — the lane
// that owns its job; concurrency lives in the executor, never inside a fit.
// Nodes partition their rows in place; the exact backend's buffers live in
// the ExactOrder, and the histogram backend recycles histogram buffers from
// node to node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/matrix.h"
#include "common/rng.h"

namespace nurd::ml {

/// Split-finding backend selection.
enum class SplitMethod {
  kAuto,       ///< histogram when the fit has ≥ exact_cutoff rows, else exact
  kExact,      ///< always exact greedy
  kHistogram,  ///< always histogram
};

/// Tree growth hyperparameters.
struct TreeParams {
  int max_depth = 3;
  double min_child_weight = 1.0;  ///< minimum Hessian sum per child
  double lambda = 1.0;            ///< L2 regularization on leaf values
  double gamma = 0.0;             ///< minimum gain to split
  double colsample = 1.0;         ///< fraction of features tried per node
  SplitMethod split = SplitMethod::kAuto;
  int max_bins = 64;              ///< histogram bins per feature (2..4096)
  std::size_t exact_cutoff = 256; ///< kAuto: rows below this use exact
};

/// True when `params` select the histogram backend for an `n_rows` fit.
bool histogram_enabled(const TreeParams& params, std::size_t n_rows);

/// Quantile-sketch feature binning, built once per boosting fit and shared
/// by every tree of the ensemble. Bin edges are placed at (deduplicated)
/// quantiles of the training rows — midpoints between adjacent distinct
/// values, so that with fewer distinct values than bins the candidate split
/// set is identical to exact greedy's. Every row of `x` is binned (not just
/// the edge-defining subset), so per-round row subsamples need no rebinning.
class FeatureBinner {
 public:
  FeatureBinner() = default;

  /// Computes per-feature bin edges from the `rows` subset of `x`, then bins
  /// all rows of `x`. `max_bins` must be in [2, 4096].
  FeatureBinner(const Matrix& x, std::span<const std::size_t> rows,
                int max_bins);

  /// Bins the rows `x` gained since this binner last saw it (x.rows() may
  /// equal rows(), a no-op) using the FROZEN edges — no re-sorting, no edge
  /// recomputation. Rows [0, rows()) of `x` must be the rows previously
  /// binned (warm-start fits append finished tasks, they never reorder).
  /// Values outside the frozen edge range clamp into the boundary bins,
  /// exactly as query-time binning always has.
  void append_rows(const Matrix& x);

  /// append_rows' general form: the previously binned rows appear in `x` in
  /// their old relative order but with NEW rows spliced in at the (sorted,
  /// ascending) positions `inserted`. Old rows' bins are remapped in one
  /// pass; only the inserted rows meet the frozen edges. This is how a
  /// warm-start fit follows an id-ordered training block, where a freshly
  /// finished task lands mid-block rather than at the end.
  void insert_rows(const Matrix& x, std::span<const std::size_t> inserted);

  /// Re-bins the listed (already covered) rows against the frozen edges —
  /// the drifting-running-task path: a warm-start fit over a snapshot
  /// refreshes only the rows the trace delta reports as changed.
  void rebin_rows(const Matrix& x, std::span<const std::size_t> changed);

  std::size_t rows() const { return n_rows_; }
  std::size_t cols() const { return n_cols_; }

  /// Number of bins for feature `f` (1 for a constant feature).
  std::size_t bin_count(std::size_t f) const { return edges_[f].size() + 1; }

  /// Bin index of row `r` for feature `f`.
  std::uint16_t bin(std::size_t f, std::size_t r) const {
    return bins_[f * n_rows_ + r];
  }

  /// Feature `f`'s contiguous per-row bin slice (length rows()) — what the
  /// kernel layer's hist_accumulate primitive consumes.
  const std::uint16_t* bin_column(std::size_t f) const {
    return bins_.data() + f * n_rows_;
  }

  /// Split threshold after bin `b`: x ≤ edge(f, b) ⟺ bin(f, x) ≤ b.
  double edge(std::size_t f, std::size_t b) const { return edges_[f][b]; }

 private:
  std::size_t n_rows_ = 0;
  std::size_t n_cols_ = 0;
  std::vector<std::vector<double>> edges_;  ///< ascending, per feature
  std::vector<std::uint16_t> bins_;         ///< column-major [f·rows + r]
};

/// The exact builder's presorted row orders for one boosting call: the
/// call's root rows in their given order, plus one chained stable sort of
/// them per feature — feature f's order is the stable sort by x(·, f) of
/// feature f−1's order, the order a per-node re-sort over the features
/// 0..d−1 produces. A node's rows are always a subsequence of the root rows
/// in root order, and a stable sort commutes with taking a subsequence, so
/// the node's segment of each presorted order IS that node's re-sorted
/// order: with colsample = 1 the trees are bit-identical to re-sorting at
/// every node. (With colsample < 1 a node re-sorting over a drawn subset
/// would chain through different features, so sums inside a tie group may
/// add in another order.) Buffers are allocated by assign() and reused by
/// every tree fitted from this order.
class ExactOrder {
 public:
  ExactOrder() = default;

  /// Presorts `rows` (indices into `x`) — O(d · n log n).
  ExactOrder(const Matrix& x, std::span<const std::size_t> rows) {
    assign(x, rows);
  }

  /// Re-presorts for a new root row set (per-round row subsampling),
  /// reusing the buffers.
  void assign(const Matrix& x, std::span<const std::size_t> rows);

 private:
  friend class RegressionTree;

  std::size_t n_ = 0;
  std::size_t d_ = 0;
  /// (d+1) segments of n: [0] the root order, [1+f] feature f's order.
  std::vector<std::size_t> sorted_;
  std::vector<std::size_t> work_;    ///< per-tree copy, partitioned per node
  std::vector<std::size_t> spill_;   ///< right-child scratch (n)
  std::vector<std::uint8_t> left_;   ///< per row of x: goes left at a split
};

/// A fitted regression tree. Nodes are stored in a flat array; leaves carry
/// the Newton-step value −G/(H+λ).
class RegressionTree {
 public:
  /// Grows a tree on the sample subset `rows` of `x`, using per-sample
  /// gradients and Hessians. `rng` drives column subsampling only. The
  /// backend follows `params.split`; histogram mode bins internally and
  /// exact mode presorts internally.
  void fit(const Matrix& x, std::span<const double> grad,
           std::span<const double> hess, std::span<const std::size_t> rows,
           const TreeParams& params, Rng& rng);

  /// Exact-backend fit on the root rows of an order presorted once per
  /// boosting call (`order` must have been assigned from `x`). The order's
  /// scratch is rewritten; its presorted orders are not.
  void fit(const Matrix& x, ExactOrder& order, std::span<const double> grad,
           std::span<const double> hess, const TreeParams& params, Rng& rng);

  /// Histogram-backend fit reusing a binner built once per boosting fit.
  /// `binner` must cover all rows of `x`.
  void fit(const Matrix& x, const FeatureBinner& binner,
           std::span<const double> grad, std::span<const double> hess,
           std::span<const std::size_t> rows, const TreeParams& params,
           Rng& rng);

  /// Leaf value for a single feature row.
  double predict(std::span<const double> row) const;

  /// Number of nodes (internal + leaves); 0 before fit.
  std::size_t node_count() const { return nodes_.size(); }

  /// Number of leaves.
  std::size_t leaf_count() const;

  /// Depth of the deepest leaf (root = depth 0); 0 for a stump/empty tree.
  int depth() const;

 private:
  /// 24 bytes: `feature == -1` marks a leaf, whose `value` is the leaf
  /// value; an internal node sends x[feature] <= value left.
  struct Node {
    double value = 0.0;
    std::int32_t feature = -1;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t depth = 0;
  };
  static_assert(sizeof(Node) == 24);

  struct ExactContext;  // exact-backend fit state (tree.cpp)
  struct HistContext;   // histogram-backend fit state (tree.cpp)

  std::int32_t build_exact(ExactContext& ctx, std::size_t begin,
                           std::size_t end, int depth);

  std::int32_t build_hist(HistContext& ctx, std::size_t begin,
                          std::size_t end, int depth,
                          AlignedVector<double>&& hist);

  static AlignedVector<double> compute_histogram(HistContext& ctx,
                                                 const std::size_t* rows,
                                                 std::size_t count);

  std::int32_t push_leaf(double g_total, double h_total, double lambda,
                         int depth);
  std::int32_t push_split(std::size_t feature, double threshold, int depth);

  std::vector<Node> nodes_;
};

}  // namespace nurd::ml
