// Neighbourhood-based detectors sharing the brute-force KnnIndex:
//   KNN  — k-th-nearest-neighbour distance (Ramaswamy et al. 2000)
//   LOF  — local outlier factor (Breunig et al. 2000)
//   COF  — connectivity-based outlier factor (Tang et al. 2002)
//   ABOD — angle-based outlier detection, FastABOD variant over the kNN set
//          (Kriegel et al. 2008)
#pragma once

#include <vector>

#include "common/knn.h"
#include "common/scaler.h"
#include "outlier/detector.h"

namespace nurd::outlier {

/// Every row's neighbour list, each ascending by (distance, index): the
/// first k entries of a list are its k-list for any smaller k, so one query
/// at the largest k serves every detector of an ensemble.
using NeighborLists = std::vector<std::vector<Neighbor>>;

/// The z-scored features the neighbourhood detectors all work on.
Matrix standardized(const Matrix& x);

/// k clamped to [1, n − 1].
std::size_t clamp_k(std::size_t k, std::size_t n);

/// KNN and LOF scores from the first k entries of every list (each ≥ k).
std::vector<double> knn_scores(const NeighborLists& nbrs, std::size_t k);
std::vector<double> lof_scores(const NeighborLists& nbrs, std::size_t k);

/// k-th-nearest-neighbour distance detector ("largest" variant).
class KnnDetector final : public Detector {
 public:
  explicit KnnDetector(std::size_t k = 5) : k_(k) {}
  void fit(const Matrix& x) override;
  const std::vector<double>& scores() const override { return scores_; }
  std::string name() const override { return "KNN"; }

 private:
  std::size_t k_;
  std::vector<double> scores_;
};

/// Local outlier factor: ratio of the average local reachability density of
/// a point's neighbours to its own.
class LofDetector final : public Detector {
 public:
  explicit LofDetector(std::size_t k = 20) : k_(k) {}
  void fit(const Matrix& x) override;
  const std::vector<double>& scores() const override { return scores_; }
  std::string name() const override { return "LOF"; }

 private:
  std::size_t k_;
  std::vector<double> scores_;
};

/// Connectivity-based outlier factor: ratio of a point's average chaining
/// distance (over its set-based nearest path) to its neighbours'.
class CofDetector final : public Detector {
 public:
  explicit CofDetector(std::size_t k = 10) : k_(k) {}
  void fit(const Matrix& x) override;
  const std::vector<double>& scores() const override { return scores_; }
  std::string name() const override { return "COF"; }

 private:
  std::size_t k_;
  std::vector<double> scores_;
};

/// FastABOD: negated variance of distance-weighted angles between all pairs
/// of a point's k nearest neighbours (small angle variance ⇒ outlier ⇒ high
/// score after negation).
class AbodDetector final : public Detector {
 public:
  explicit AbodDetector(std::size_t k = 10) : k_(k) {}
  void fit(const Matrix& x) override;
  const std::vector<double>& scores() const override { return scores_; }
  std::string name() const override { return "ABOD"; }

 private:
  std::size_t k_;
  std::vector<double> scores_;
};

}  // namespace nurd::outlier
