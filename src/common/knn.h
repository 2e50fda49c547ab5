// Brute-force k-nearest-neighbour index. Shared by the ABOD, KNN, LOF, COF,
// SOD, LSCP and XGBOD detectors. O(n²) distance computation is deliberate: the
// per-checkpoint task counts this library sees (hundreds to a few thousand)
// make a KD-tree unnecessary, and brute force is exact and branch-predictable.
#pragma once

#include <cstddef>
#include <vector>

#include "common/matrix.h"

namespace nurd {

/// One neighbour of a query point.
struct Neighbor {
  std::size_t index;  ///< row index into the indexed matrix
  double distance;    ///< Euclidean distance to the query
};

/// Exact k-NN over the rows of a fixed matrix.
class KnnIndex {
 public:
  /// Indexes the rows of `points`. The matrix is copied; the index remains
  /// valid independently of the caller's data.
  explicit KnnIndex(Matrix points);

  /// The k nearest rows to `query`, ascending by distance. If `exclude_self`
  /// is a valid row index, that row is skipped (used when querying indexed
  /// points against their own index). k is clamped to the available count.
  std::vector<Neighbor> query(std::span<const double> query, std::size_t k,
                              std::size_t exclude_self = kNoExclude) const;

  /// k nearest neighbours of indexed row `i`, excluding itself. Distance
  /// ties break by index, so the list for k is exactly the first k entries
  /// of the list for any larger k.
  std::vector<Neighbor> neighbors_of(std::size_t i, std::size_t k) const;

  /// neighbors_of(i, k) for every indexed row i, in row order.
  std::vector<std::vector<Neighbor>> all_neighbors(std::size_t k) const;

  std::size_t size() const { return points_.rows(); }
  const Matrix& points() const { return points_; }

  static constexpr std::size_t kNoExclude = static_cast<std::size_t>(-1);

 private:
  Matrix points_;
};

}  // namespace nurd
