#include "common/knn.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "kernel/kernel.h"

namespace nurd {

KnnIndex::KnnIndex(Matrix points) : points_(std::move(points)) {}

std::vector<Neighbor> KnnIndex::query(std::span<const double> query,
                                      std::size_t k,
                                      std::size_t exclude_self) const {
  NURD_CHECK(query.size() == points_.cols(), "query dimension mismatch");
  const std::size_t n = points_.rows();
  // One batched kernel call for all n squared distances (the scan below then
  // only filters and sorts); it matches the per-row squared_distance loop
  // bit-for-bit.
  std::vector<double> d2(n);
  kernel::ops().squared_l2_rows(points_.flat().data(), n, points_.cols(),
                                query.data(), d2.data());
  std::vector<Neighbor> all;
  all.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == exclude_self) continue;
    all.push_back({i, d2[i]});
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), [](const Neighbor& a, const Neighbor& b) {
                      return a.distance < b.distance ||
                             (a.distance == b.distance && a.index < b.index);
                    });
  all.resize(k);
  for (auto& nb : all) nb.distance = std::sqrt(nb.distance);
  return all;
}

std::vector<Neighbor> KnnIndex::neighbors_of(std::size_t i,
                                             std::size_t k) const {
  NURD_CHECK(i < points_.rows(), "row index out of range");
  return query(points_.row(i), k, i);
}

std::vector<std::vector<Neighbor>> KnnIndex::all_neighbors(
    std::size_t k) const {
  std::vector<std::vector<Neighbor>> out(points_.rows());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = neighbors_of(i, k);
  return out;
}

}  // namespace nurd
