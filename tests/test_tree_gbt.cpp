#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "kernel/kernel.h"
#include "ml/gbt.h"
#include "ml/loss.h"
#include "ml/tree.h"

namespace nurd::ml {
namespace {

TEST(RegressionTree, PerfectSplitRecovered) {
  // y = −1 for x < 0, +1 for x > 0; squared-loss grads at score 0 are
  // (0 − y) with unit hessians.
  Matrix x{{-2.0}, {-1.0}, {1.0}, {2.0}};
  const std::vector<double> grad{1.0, 1.0, -1.0, -1.0};
  const std::vector<double> hess{1.0, 1.0, 1.0, 1.0};
  std::vector<std::size_t> rows{0, 1, 2, 3};
  TreeParams params;
  params.lambda = 0.0;
  params.min_child_weight = 0.0;
  Rng rng(1);
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params, rng);
  EXPECT_NEAR(tree.predict(x.row(0)), -1.0, 1e-9);
  EXPECT_NEAR(tree.predict(x.row(3)), 1.0, 1e-9);
  EXPECT_EQ(tree.leaf_count(), 2u);
}

TEST(RegressionTree, DepthZeroIsStump) {
  Matrix x{{-1.0}, {1.0}};
  const std::vector<double> grad{1.0, -1.0};
  const std::vector<double> hess{1.0, 1.0};
  std::vector<std::size_t> rows{0, 1};
  TreeParams params;
  params.max_depth = 0;
  Rng rng(1);
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params, rng);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.depth(), 0);
}

TEST(RegressionTree, LeafValueIsNewtonStep) {
  Matrix x{{0.0}, {0.0}};
  const std::vector<double> grad{2.0, 2.0};
  const std::vector<double> hess{1.0, 1.0};
  std::vector<std::size_t> rows{0, 1};
  TreeParams params;
  params.lambda = 2.0;
  Rng rng(1);
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params, rng);
  // w* = −G/(H+λ) = −4/4 = −1.
  EXPECT_NEAR(tree.predict(x.row(0)), -1.0, 1e-12);
}

TEST(RegressionTree, MinChildWeightBlocksSplit) {
  Matrix x{{-1.0}, {1.0}};
  const std::vector<double> grad{1.0, -1.0};
  const std::vector<double> hess{0.4, 0.4};
  std::vector<std::size_t> rows{0, 1};
  TreeParams params;
  params.min_child_weight = 0.5;  // each child would have H = 0.4 < 0.5
  Rng rng(1);
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params, rng);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(RegressionTree, GammaBlocksLowGainSplit) {
  Matrix x{{-1.0}, {1.0}};
  const std::vector<double> grad{0.01, -0.01};
  const std::vector<double> hess{1.0, 1.0};
  std::vector<std::size_t> rows{0, 1};
  TreeParams params;
  params.gamma = 10.0;
  params.min_child_weight = 0.0;
  Rng rng(1);
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params, rng);
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(RegressionTree, RespectsMaxDepth) {
  Rng data_rng(3);
  const std::size_t n = 200;
  Matrix x(n, 3);
  std::vector<double> grad(n), hess(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = data_rng.normal();
    grad[i] = data_rng.normal();
  }
  std::vector<std::size_t> rows(n);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  TreeParams params;
  params.max_depth = 2;
  params.min_child_weight = 0.0;
  Rng rng(4);
  RegressionTree tree;
  tree.fit(x, grad, hess, rows, params, rng);
  EXPECT_LE(tree.depth(), 2);
  EXPECT_LE(tree.leaf_count(), 4u);
}

TEST(GradientBoosting, FitsLinearFunction) {
  Rng rng(7);
  const std::size_t n = 500;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(-2.0, 2.0);
    x(i, 1) = rng.uniform(-2.0, 2.0);
    y[i] = 3.0 * x(i, 0) - 2.0 * x(i, 1);
  }
  GbtParams params;
  params.n_rounds = 200;
  params.learning_rate = 0.2;
  params.tree.max_depth = 4;
  auto model = GradientBoosting::regressor(params);
  model.fit(x, y);
  double sse = 0.0, sst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = model.predict(x.row(i));
    sse += (p - y[i]) * (p - y[i]);
    sst += y[i] * y[i];
  }
  EXPECT_LT(sse / sst, 0.05);  // R² > 0.95
}

TEST(GradientBoosting, ConstantTargetPerfect) {
  Matrix x{{1.0}, {2.0}, {3.0}};
  const std::vector<double> y{5.0, 5.0, 5.0};
  auto model = GradientBoosting::regressor();
  model.fit(x, y);
  EXPECT_NEAR(model.predict(x.row(0)), 5.0, 1e-9);
}

TEST(GradientBoosting, ClassifierSeparatesClasses) {
  Rng rng(9);
  const std::size_t n = 400;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool pos = i % 2 == 0;
    x(i, 0) = rng.normal(pos ? 2.0 : -2.0, 0.5);
    x(i, 1) = rng.normal();
    y[i] = pos ? 1.0 : 0.0;
  }
  auto model = GradientBoosting::classifier();
  model.fit(x, y);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = model.predict(x.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    if ((p > 0.5) == (y[i] > 0.5)) ++correct;
  }
  EXPECT_GT(correct, n * 95 / 100);
}

TEST(GradientBoosting, GrabitPullsCensoredAboveHorizon) {
  // Group A (x=0): uncensored around 1. Group B (x=1): all right-censored
  // at 5 — the latent prediction for B must exceed 5.
  Rng rng(11);
  const std::size_t n = 200;
  Matrix x(n, 1);
  std::vector<Target> t(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      x(i, 0) = 0.0;
      t[i] = {1.0 + rng.normal(0.0, 0.1), false};
    } else {
      x(i, 0) = 1.0;
      t[i] = {5.0, true};
    }
  }
  auto model = GradientBoosting::grabit(1.0);
  model.fit(x, t);
  const std::vector<double> xa{0.0}, xb{1.0};
  EXPECT_NEAR(model.predict(xa), 1.0, 0.3);
  EXPECT_GT(model.predict(xb), 5.0);
}

TEST(GradientBoosting, MoreRoundsNotWorseInSample) {
  Rng rng(13);
  const std::size_t n = 300;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 3; ++j) x(i, j) = rng.normal();
    y[i] = std::sin(x(i, 0)) + 0.5 * x(i, 1) * x(i, 2);
  }
  double prev_sse = 1e300;
  for (int rounds : {5, 20, 80}) {
    GbtParams params;
    params.n_rounds = rounds;
    auto model = GradientBoosting::regressor(params);
    model.fit(x, y);
    double sse = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = model.predict(x.row(i));
      sse += (p - y[i]) * (p - y[i]);
    }
    EXPECT_LE(sse, prev_sse * 1.001);
    prev_sse = sse;
  }
}

TEST(GradientBoosting, DeterministicGivenSeed) {
  Rng rng(15);
  Matrix x(100, 2);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y[i] = x(i, 0);
  }
  GbtParams params;
  params.subsample = 0.7;
  params.tree.colsample = 0.5;
  auto a = GradientBoosting::regressor(params);
  auto b = GradientBoosting::regressor(params);
  a.fit(x, y);
  b.fit(x, y);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.predict(x.row(i)), b.predict(x.row(i)));
  }
}

TEST(GradientBoosting, PredictBeforeFitThrows) {
  auto model = GradientBoosting::regressor();
  const std::vector<double> row{1.0};
  EXPECT_THROW(model.predict(row), std::invalid_argument);
}

TEST(GradientBoosting, RejectsEmptyFit) {
  auto model = GradientBoosting::regressor();
  Matrix x(0, 0);
  EXPECT_THROW(model.fit(x, std::vector<double>{}), std::invalid_argument);
}

// ---- Exact-builder parity --------------------------------------------------
// The exact builder sorts once per boosting call (ExactOrder) and partitions
// per node. RefTree is the builder it replaced: it re-sorts a node's rows
// for every feature at every node, chaining each stable sort from the
// previous feature's order. With colsample = 1 both scan the same orders, so
// trees, leaf values and scores must match bit for bit. With colsample < 1 the
// re-sort chains through the drawn features only, so sums inside a tie group
// may add in a different order; the tests on that setting assert
// determinism only.
struct RefTree {
  struct Node {
    bool leaf = true;
    double value = 0.0;  // leaf value or threshold
    std::size_t feature = 0;
    int left = -1, right = -1;
  };
  std::vector<Node> nodes;

  int build(const Matrix& x, std::span<const double> g,
            std::span<const double> h, const std::vector<std::size_t>& rows,
            int depth, const TreeParams& p) {
    double gt = 0.0, ht = 0.0;
    kernel::ops().pair_sum_indexed(g.data(), h.data(), rows.data(),
                                   rows.size(), &gt, &ht);
    const auto leaf = [&] {
      nodes.push_back({true, -gt / (ht + p.lambda), 0, -1, -1});
      return static_cast<int>(nodes.size()) - 1;
    };
    if (depth >= p.max_depth || rows.size() < 2) return leaf();
    const auto obj = [&](double a, double b) {
      return -0.5 * a * a / (b + p.lambda);
    };
    double best = -std::numeric_limits<double>::infinity(), thr = 0.0;
    std::size_t bf = 0;
    std::vector<std::size_t> s = rows;
    for (std::size_t f = 0; f < x.cols(); ++f) {
      std::stable_sort(s.begin(), s.end(), [&](std::size_t a, std::size_t b) {
        return x(a, f) < x(b, f);
      });
      double gl = 0.0, hl = 0.0;
      for (std::size_t i = 0; i + 1 < s.size(); ++i) {
        gl += g[s[i]];
        hl += h[s[i]];
        const double v = x(s[i], f), vn = x(s[i + 1], f);
        if (vn <= v || hl < p.min_child_weight ||
            ht - hl < p.min_child_weight) {
          continue;
        }
        const double gain = obj(gt, ht) - obj(gl, hl) - obj(gt - gl, ht - hl);
        if (gain > best) {
          best = gain;
          bf = f;
          thr = 0.5 * (v + vn);
        }
      }
    }
    if (best <= p.gamma) return leaf();
    std::vector<std::size_t> l, r;
    for (const auto i : rows) (x(i, bf) <= thr ? l : r).push_back(i);
    if (l.empty() || r.empty()) return leaf();
    nodes.push_back({false, thr, bf, -1, -1});
    const int self = static_cast<int>(nodes.size()) - 1;
    const int li = build(x, g, h, l, depth + 1, p);
    const int ri = build(x, g, h, r, depth + 1, p);
    nodes[static_cast<std::size_t>(self)].left = li;
    nodes[static_cast<std::size_t>(self)].right = ri;
    return self;
  }

  double predict(std::span<const double> row) const {
    std::size_t i = 0;
    while (!nodes[i].leaf) {
      const auto& n = nodes[i];
      i = static_cast<std::size_t>(row[n.feature] <= n.value ? n.left
                                                             : n.right);
    }
    return nodes[i].value;
  }

  std::size_t leaves() const {
    return static_cast<std::size_t>(std::count_if(
        nodes.begin(), nodes.end(), [](const Node& n) { return n.leaf; }));
  }
};

// Integer-valued features with many ties (6 levels each), non-integer
// targets, so the summation order inside a tie group shows in the bits.
struct TieData {
  Matrix x;
  std::vector<double> y;
};

TieData tie_heavy(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  TieData d{Matrix(n, 3), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < 3; ++f) {
      d.x(i, f) = static_cast<double>(rng.uniform_int(0, 5));
    }
    d.y[i] = d.x(i, 0) - 2.0 * (d.x(i, 2) > 2.0 ? d.x(i, 1) : 0.0) +
             rng.normal(0.0, 0.3);
  }
  return d;
}

// Reference booster: squared loss, RefTree per round, eager score updates.
// `rows_of(round)` gives the round's root rows. Returns base + Σ rate·tree.
struct RefEnsemble {
  double base = 0.0;
  std::vector<RefTree> trees;
  std::vector<double> rates;

  double predict(std::span<const double> row) const {
    double s = base;
    for (std::size_t k = 0; k < trees.size(); ++k) {
      s += rates[k] * trees[k].predict(row);
    }
    return s;
  }
};

std::vector<Target> targets_of(const std::vector<double>& y) {
  std::vector<Target> t(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) t[i] = {y[i], false};
  return t;
}

TEST(ExactBuilderParity, OneShotFitMatchesPerNodeResort) {
  const auto d = tie_heavy(150, 3);
  Rng draw(4);
  std::vector<double> grad(150), hess(150);
  for (std::size_t i = 0; i < 150; ++i) {
    grad[i] = -d.y[i];
    hess[i] = 0.5 + draw.uniform();
  }
  // A shuffled subset: the root order is not the index order.
  auto perm = draw.permutation(150);
  const std::vector<std::size_t> rows(perm.begin(), perm.begin() + 110);
  TreeParams params;
  params.max_depth = 5;
  params.split = SplitMethod::kExact;

  RegressionTree tree;
  Rng rng(1);
  tree.fit(d.x, grad, hess, rows, params, rng);
  RefTree ref;
  ref.build(d.x, grad, hess, rows, 0, params);
  EXPECT_EQ(tree.node_count(), ref.nodes.size());
  EXPECT_EQ(tree.leaf_count(), ref.leaves());
  for (std::size_t i = 0; i < 150; ++i) {
    EXPECT_EQ(tree.predict(d.x.row(i)), ref.predict(d.x.row(i))) << i;
  }
}

TEST(ExactBuilderParity, TieOrderFollowsTheFeatureChain) {
  // Inside feature 1's tie group {r0, r1, r2} the Hessians sum to
  // (0.2 + 0.3) + 0.1 = 0.6 in the chained order (feature 0 sorts r0 last)
  // but to (0.1 + 0.2) + 0.3 = 0.6000000000000001 in root order. With
  // min_child_weight at the latter, only the chained order blocks the split.
  Matrix x{{1.0, 0.0}, {0.0, 0.0}, {0.0, 0.0},
           {1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> grad{1.0, 1.0, 1.0, -1.0, -1.0, -1.0};
  const std::vector<double> hess{0.1, 0.2, 0.3, 1.0, 1.0, 1.0};
  const std::vector<std::size_t> rows{0, 1, 2, 3, 4, 5};
  TreeParams params;
  params.max_depth = 2;
  params.split = SplitMethod::kExact;
  params.min_child_weight = std::nextafter(0.6, 1.0);
  RegressionTree tree;
  Rng rng(1);
  tree.fit(x, grad, hess, rows, params, rng);
  RefTree ref;
  ref.build(x, grad, hess, rows, 0, params);
  ASSERT_EQ(ref.nodes.size(), 1u);
  EXPECT_EQ(tree.node_count(), 1u);
}

// Boosts `rounds` rounds with both builders: the library trees come from one
// ExactOrder per call (re-presorted only when the root rows change), as
// GradientBoosting::boost does. Node/leaf counts are compared per round.
void boost_both(const TieData& d, const GbtParams& params, int rounds,
                RefEnsemble* ref) {
  const std::size_t n = d.x.rows();
  const auto targets = targets_of(d.y);
  SquaredLoss loss;
  ref->base = loss.init_score(targets);
  std::vector<double> score(n, ref->base), grad(n), hess(n);
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  Rng rng(params.seed);
  ExactOrder order(d.x, all);
  for (int round = 0; round < rounds; ++round) {
    loss.grad_hess_batch(targets, score, grad, hess);
    std::vector<std::size_t> rows = all;
    if (params.subsample < 1.0) {
      const auto k = static_cast<std::size_t>(params.subsample *
                                              static_cast<double>(n));
      rows = rng.sample_without_replacement(n, k);
      order.assign(d.x, rows);
    }
    RefTree t;
    t.build(d.x, grad, hess, rows, 0, params.tree);
    RegressionTree lib;
    Rng unused(0);
    lib.fit(d.x, order, grad, hess, params.tree, unused);
    ASSERT_EQ(lib.node_count(), t.nodes.size()) << "round " << round;
    ASSERT_EQ(lib.leaf_count(), t.leaves()) << "round " << round;
    for (std::size_t i = 0; i < n; ++i) {
      score[i] += params.learning_rate * t.predict(d.x.row(i));
    }
    ref->trees.push_back(std::move(t));
    ref->rates.push_back(params.learning_rate);
  }
}

void expect_boost_parity(double subsample) {
  const auto d = tie_heavy(150, 5);
  GbtParams params;
  params.n_rounds = 40;
  params.subsample = subsample;
  params.tree.split = SplitMethod::kExact;
  auto model = GradientBoosting::regressor(params);
  model.fit(d.x, d.y);
  RefEnsemble ref;
  boost_both(d, params, 40, &ref);
  ASSERT_EQ(model.tree_count(), 40u);
  for (std::size_t i = 0; i < 150; ++i) {
    EXPECT_EQ(model.predict(d.x.row(i)), ref.predict(d.x.row(i))) << i;
  }
}

TEST(ExactBuilderParity, FortyRoundBoostMatchesPerNodeResort) {
  expect_boost_parity(1.0);
}

TEST(ExactBuilderParity, SubsampledBoostMatchesPerNodeResort) {
  expect_boost_parity(0.7);
}

TEST(ExactBuilderParity, ActiveSetContinuationMatchesPerNodeResort) {
  // Rows i % 5 == 2 arrive at the first continuation and i % 5 == 4 at the
  // second, each batch spliced in mid-block. Two continuations make rows
  // outside the first active set lag the ensemble, so the second one reads
  // caught-up scores.
  const auto full = tie_heavy(150, 6);
  const auto block = [&](std::size_t stage, std::vector<std::size_t>* ins) {
    TieData d{Matrix(0, 3), {}};
    for (std::size_t i = 0; i < 150; ++i) {
      const std::size_t arrives = i % 5 == 2 ? 1 : i % 5 == 4 ? 2 : 0;
      if (arrives > stage) continue;
      if (arrives == stage && stage > 0) ins->push_back(d.y.size());
      d.x.push_row(full.x.row(i));
      d.y.push_back(full.y[i]);
    }
    return d;
  };
  std::vector<std::size_t> none, ins1, ins2;
  const auto stage0 = block(0, &none);
  const auto stage1 = block(1, &ins1);
  const auto stage2 = block(2, &ins2);

  GbtParams params;
  params.n_rounds = 40;
  params.warm_start = true;
  params.tree.split = SplitMethod::kExact;
  auto model = GradientBoosting::regressor(params);
  model.fit(stage0.x, stage0.y);
  model.continue_fit(stage1.x, stage1.y, 12, {}, ins1);
  model.continue_fit(stage2.x, stage2.y, 12, {}, ins2);

  RefEnsemble ref;
  boost_both(stage0, params, 40, &ref);
  // The documented active set: inserted rows plus 3 anchors per inserted
  // row, drawn from the booster stream (unused by the fit at colsample = 1).
  Rng rng(params.seed);
  SquaredLoss loss;
  for (const auto* stage : {&stage1, &stage2}) {
    const auto& ins = stage == &stage1 ? ins1 : ins2;
    const std::size_t n = stage->y.size();
    std::vector<std::size_t> active = ins;
    const auto anchors = rng.sample_without_replacement(
        n, std::min(n - ins.size(), 3 * ins.size()));
    active.insert(active.end(), anchors.begin(), anchors.end());
    std::sort(active.begin(), active.end());
    active.erase(std::unique(active.begin(), active.end()), active.end());

    const auto targets = targets_of(stage->y);
    std::vector<double> score(n), grad(n), hess(n);
    for (std::size_t i = 0; i < n; ++i) score[i] = ref.predict(stage->x.row(i));
    for (int round = 0; round < 12; ++round) {
      for (const auto i : active) {
        const auto gh = loss.grad_hess(targets[i], score[i]);
        grad[i] = gh.grad;
        hess[i] = gh.hess;
      }
      RefTree t;
      t.build(stage->x, grad, hess, active, 0, params.tree);
      for (const auto i : active) {
        score[i] += params.learning_rate * t.predict(stage->x.row(i));
      }
      ref.trees.push_back(std::move(t));
      ref.rates.push_back(params.learning_rate);
    }
  }
  ASSERT_EQ(model.tree_count(), 64u);
  for (std::size_t i = 0; i < 150; ++i) {
    EXPECT_EQ(model.predict(stage2.x.row(i)), ref.predict(stage2.x.row(i)))
        << i;
  }
}

}  // namespace
}  // namespace nurd::ml
