#include "outlier/iforest.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace nurd::outlier {

double IForestDetector::average_path_length(std::size_t n) {
  if (n <= 1) return 0.0;
  if (n == 2) return 1.0;
  const double nn = static_cast<double>(n);
  static const double kEuler = 0.5772156649015329;
  return 2.0 * (std::log(nn - 1.0) + kEuler) - 2.0 * (nn - 1.0) / nn;
}

std::int32_t IForestDetector::build(Tree& tree, const Matrix& x,
                                    std::vector<std::size_t>& rows, int depth,
                                    int max_depth, Rng& rng) {
  const auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.is_leaf = true;
    leaf.leaf_depth = average_path_length(rows.size());
    tree.nodes.push_back(leaf);
    return static_cast<std::int32_t>(tree.nodes.size() - 1);
  };
  if (rows.size() <= 1 || depth >= max_depth) return make_leaf();

  // Pick a random feature with spread, then a random split point within it.
  const std::size_t d = x.cols();
  const auto feat_order = rng.permutation(d);
  std::size_t feature = d;
  double lo = 0.0, hi = 0.0;
  for (std::size_t f : feat_order) {
    lo = hi = x(rows[0], f);
    for (auto r : rows) {
      lo = std::min(lo, x(r, f));
      hi = std::max(hi, x(r, f));
    }
    if (hi > lo) {
      feature = f;
      break;
    }
  }
  if (feature == d) return make_leaf();  // all duplicate rows

  const double threshold = rng.uniform(lo, hi);
  std::vector<std::size_t> left_rows, right_rows;
  for (auto r : rows) {
    (x(r, feature) < threshold ? left_rows : right_rows).push_back(r);
  }
  if (left_rows.empty() || right_rows.empty()) return make_leaf();

  Node node;
  node.is_leaf = false;
  node.feature = feature;
  node.threshold = threshold;
  tree.nodes.push_back(node);
  const auto self = static_cast<std::int32_t>(tree.nodes.size() - 1);
  const auto left = build(tree, x, left_rows, depth + 1, max_depth, rng);
  const auto right = build(tree, x, right_rows, depth + 1, max_depth, rng);
  tree.nodes[static_cast<std::size_t>(self)].left = left;
  tree.nodes[static_cast<std::size_t>(self)].right = right;
  return self;
}

double IForestDetector::Tree::path_length(std::span<const double> row) const {
  double depth = 0.0;
  std::size_t i = 0;
  while (!nodes[i].is_leaf) {
    const auto& n = nodes[i];
    i = static_cast<std::size_t>(row[n.feature] < n.threshold ? n.left
                                                              : n.right);
    depth += 1.0;
  }
  // Unresolved leaves contribute the expected remaining depth c(size).
  return depth + nodes[i].leaf_depth;
}

void IForestDetector::fit(const Matrix& x) {
  NURD_CHECK(x.rows() >= 2, "IForest needs at least two points");
  const std::size_t n = x.rows();
  const std::size_t psi = std::min(params_.subsample, n);
  const int max_depth =
      static_cast<int>(std::ceil(std::log2(std::max<std::size_t>(psi, 2))));

  Rng rng(params_.seed);
  std::vector<Tree> trees(params_.n_trees);
  for (auto& tree : trees) {
    auto rows = rng.sample_without_replacement(n, psi);
    build(tree, x, rows, 0, max_depth, rng);
  }

  const double c = average_path_length(psi);
  scores_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double mean_path = 0.0;
    for (const auto& tree : trees) mean_path += tree.path_length(x.row(i));
    mean_path /= static_cast<double>(trees.size());
    scores_[i] = std::pow(2.0, -mean_path / std::max(c, 1e-12));
  }
}

}  // namespace nurd::outlier
