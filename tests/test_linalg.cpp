#include "common/linalg.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace nurd {
namespace {

// Random SPD matrix A = B·Bᵀ + d·I.
Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) a(i, j) += b(i, k) * b(j, k);
    }
    a(i, i) += 0.5;
  }
  return a;
}

TEST(Cholesky, KnownFactorization) {
  Matrix a{{4.0, 2.0}, {2.0, 5.0}};
  auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  EXPECT_NEAR((*l)(0, 0), 2.0, 1e-12);
  EXPECT_NEAR((*l)(1, 0), 1.0, 1e-12);
  EXPECT_NEAR((*l)(1, 1), 2.0, 1e-12);
}

TEST(Cholesky, RejectsNonSpd) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // indefinite
  EXPECT_FALSE(cholesky(a).has_value());
}

TEST(Cholesky, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_THROW(cholesky(a), std::invalid_argument);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  Matrix a{{4.0, 2.0}, {2.0, 5.0}};
  auto l = cholesky(a);
  ASSERT_TRUE(l);
  // x = (1, 2) ⇒ b = A·x = (8, 12).
  const std::vector<double> b{8.0, 12.0};
  const auto x = cholesky_solve(*l, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Cholesky, LogDetMatchesKnown) {
  Matrix a{{4.0, 0.0}, {0.0, 9.0}};  // det = 36
  auto l = cholesky(a);
  ASSERT_TRUE(l);
  EXPECT_NEAR(cholesky_logdet(*l), std::log(36.0), 1e-12);
}

class SpdPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpdPropertyTest, FactorReconstructsMatrix) {
  Rng rng(100 + GetParam());
  const auto a = random_spd(GetParam(), rng);
  auto l = cholesky(a);
  ASSERT_TRUE(l);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      double llt = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k) {
        llt += (*l)(i, k) * (*l)(j, k);
      }
      EXPECT_NEAR(llt, a(i, j), 1e-8);
    }
  }
}

TEST_P(SpdPropertyTest, InverseTimesMatrixIsIdentity) {
  Rng rng(200 + GetParam());
  const auto a = random_spd(GetParam(), rng);
  auto inv = spd_inverse(a);
  ASSERT_TRUE(inv);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      double prod = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k) {
        prod += a(i, k) * (*inv)(k, j);
      }
      EXPECT_NEAR(prod, i == j ? 1.0 : 0.0, 1e-7);
    }
  }
}

TEST_P(SpdPropertyTest, EigenReconstruction) {
  Rng rng(300 + GetParam());
  const auto a = random_spd(GetParam(), rng);
  const auto eig = jacobi_eigen(a);
  // A = Σ λ_i v_i v_iᵀ.
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += eig.values[k] * eig.vectors(k, i) * eig.vectors(k, j);
      }
      EXPECT_NEAR(sum, a(i, j), 1e-7);
    }
  }
  // Eigenvalues descending and positive for SPD.
  for (std::size_t k = 0; k + 1 < n; ++k) {
    EXPECT_GE(eig.values[k], eig.values[k + 1]);
  }
  EXPECT_GT(eig.values[n - 1], 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpdPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 8, 15));

TEST(JacobiEigen, DiagonalMatrix) {
  Matrix a{{3.0, 0.0}, {0.0, 1.0}};
  const auto eig = jacobi_eigen(a);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
}

TEST(Covariance, KnownTwoPoint) {
  Matrix x{{0.0, 0.0}, {2.0, 4.0}};
  const auto c = covariance(x);
  EXPECT_NEAR(c(0, 0), 2.0, 1e-12);  // var of {0,2} with n-1 = 2
  EXPECT_NEAR(c(1, 1), 8.0, 1e-12);
  EXPECT_NEAR(c(0, 1), 4.0, 1e-12);
  EXPECT_NEAR(c(1, 0), 4.0, 1e-12);
}

TEST(Covariance, SingleRowIsZero) {
  Matrix x{{1.0, 2.0}};
  const auto c = covariance(x);
  EXPECT_DOUBLE_EQ(c(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 0.0);
}

TEST(Mahalanobis, IdentityPrecisionIsEuclidean) {
  Matrix p{{1.0, 0.0}, {0.0, 1.0}};
  const std::vector<double> v{3.0, 4.0};
  const std::vector<double> mu{0.0, 0.0};
  std::vector<double> scratch(4);
  EXPECT_NEAR(mahalanobis_squared(v, mu, p, scratch), 25.0, 1e-12);
}

TEST(Mahalanobis, ScalesWithPrecision) {
  Matrix p{{4.0, 0.0}, {0.0, 1.0}};
  const std::vector<double> v{1.0, 0.0};
  const std::vector<double> mu{0.0, 0.0};
  std::vector<double> scratch(4);
  EXPECT_NEAR(mahalanobis_squared(v, mu, p, scratch), 4.0, 1e-12);
}

}  // namespace
}  // namespace nurd
