#include "common/knn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace nurd {
namespace {

Matrix line_points() {
  // Points on a line at x = 0, 1, 2, 10.
  return Matrix{{0.0}, {1.0}, {2.0}, {10.0}};
}

TEST(KnnIndex, NearestNeighborOnLine) {
  KnnIndex index(line_points());
  const std::vector<double> q{1.2};
  const auto nb = index.query(q, 2);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0].index, 1u);
  EXPECT_NEAR(nb[0].distance, 0.2, 1e-12);
  EXPECT_EQ(nb[1].index, 2u);
}

TEST(KnnIndex, ExcludeSelfSkipsRow) {
  KnnIndex index(line_points());
  const auto nb = index.neighbors_of(0, 3);
  ASSERT_EQ(nb.size(), 3u);
  for (const auto& n : nb) EXPECT_NE(n.index, 0u);
  EXPECT_EQ(nb[0].index, 1u);
}

TEST(KnnIndex, KClampedToAvailable) {
  KnnIndex index(line_points());
  const auto nb = index.neighbors_of(0, 100);
  EXPECT_EQ(nb.size(), 3u);  // 4 points minus self
}

TEST(KnnIndex, DistancesAreAscending) {
  KnnIndex index(line_points());
  const std::vector<double> q{5.0};
  const auto nb = index.query(q, 4);
  for (std::size_t i = 0; i + 1 < nb.size(); ++i) {
    EXPECT_LE(nb[i].distance, nb[i + 1].distance);
  }
}

TEST(KnnIndex, TiesBrokenByIndex) {
  Matrix pts{{0.0}, {2.0}, {-2.0}};
  KnnIndex index(pts);
  const std::vector<double> q{0.0};
  const auto nb = index.query(q, 3);
  EXPECT_EQ(nb[0].index, 0u);
  EXPECT_EQ(nb[1].index, 1u);  // distance tie with row 2; lower index first
  EXPECT_EQ(nb[2].index, 2u);
}

TEST(KnnIndex, QueryDimensionMismatchThrows) {
  KnnIndex index(line_points());
  const std::vector<double> q{1.0, 2.0};
  EXPECT_THROW(index.query(q, 1), std::invalid_argument);
}

// The neighbour-sharing detectors (LSCP, XGBOD) query once at the largest k
// and read every smaller k-list as a prefix; ties broken by index make that
// exact.
void expect_prefix_lists(const Matrix& pts, std::size_t big_k) {
  KnnIndex index(pts);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    const auto all = index.neighbors_of(i, big_k);
    for (std::size_t k = 1; k <= big_k; ++k) {
      const auto some = index.neighbors_of(i, k);
      ASSERT_EQ(some.size(), std::min(k, all.size())) << "i=" << i;
      for (std::size_t r = 0; r < some.size(); ++r) {
        EXPECT_EQ(some[r].index, all[r].index) << "i=" << i << " k=" << k;
        EXPECT_EQ(some[r].distance, all[r].distance);
      }
    }
  }
}

TEST(KnnIndex, SmallerKIsPrefixOfLargerK) {
  Rng rng(11);
  Matrix pts(40, 3);
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = 0; j < 3; ++j) pts(i, j) = rng.normal();
  }
  expect_prefix_lists(pts, 12);
}

TEST(KnnIndex, PrefixHoldsUnderTiedDistances) {
  // Every row appears three times and the grid spacing ties many distances.
  Matrix pts(0, 0);
  for (int rep = 0; rep < 3; ++rep) {
    for (int a = 0; a < 4; ++a) {
      const std::vector<double> row{static_cast<double>(a), 1.0};
      pts.push_row(row);
    }
  }
  expect_prefix_lists(pts, 11);
}

TEST(KnnIndex, PrefixHoldsWhenKClampsAtNMinusOne) {
  const Matrix pts = line_points();
  expect_prefix_lists(pts, 10);  // clamps to n - 1 = 3
}

}  // namespace
}  // namespace nurd
