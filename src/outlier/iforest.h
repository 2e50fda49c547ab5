// Isolation Forest (Liu, Ting & Zhou 2008): ensembles of random isolation
// trees; anomalies have short expected path lengths. Scores follow the
// paper's 2^(−E[h(x)]/c(ψ)) normalization, so 0.5 is "average" and values
// toward 1 are anomalous.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "outlier/detector.h"

namespace nurd::outlier {

/// Isolation forest hyperparameters.
struct IForestParams {
  std::size_t n_trees = 100;
  std::size_t subsample = 256;  ///< ψ, clamped to n
  std::uint64_t seed = 5;
};

/// Isolation forest detector.
class IForestDetector final : public Detector {
 public:
  explicit IForestDetector(IForestParams params = {}) : params_(params) {}
  void fit(const Matrix& x) override;
  const std::vector<double>& scores() const override { return scores_; }
  std::string name() const override { return "IFOREST"; }

  /// Average path length of an unsuccessful BST search over n points —
  /// the c(n) normalizer from the paper. Exposed for tests.
  static double average_path_length(std::size_t n);

 private:
  struct Node {
    bool is_leaf = true;
    double leaf_depth = 0.0;   // c(points reaching this leaf)
    std::size_t feature = 0;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
  };
  struct Tree {
    std::vector<Node> nodes;
    double path_length(std::span<const double> row) const;
  };

  static std::int32_t build(Tree& tree, const Matrix& x,
                            std::vector<std::size_t>& rows, int depth,
                            int max_depth, Rng& rng);

  IForestParams params_;
  std::vector<double> scores_;
};

}  // namespace nurd::outlier
