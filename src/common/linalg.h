// Small dense linear algebra for the feature dimensionalities this library
// sees (d = 4 for Alibaba-like traces, d = 15 for Google-like). Cholesky
// factorization backs the Mahalanobis distances in the MCD detector; Jacobi
// eigendecomposition backs the PCA detector. None of this is tuned for large
// d — it does not need to be.
#pragma once

#include <optional>
#include <vector>

#include "common/matrix.h"

namespace nurd {

/// Result of a symmetric eigendecomposition: eigenvalues in descending order
/// with matching eigenvectors (each eigenvector is a row of `vectors`).
struct EigenResult {
  std::vector<double> values;
  Matrix vectors;  // vectors.row(i) is the eigenvector for values[i]
};

/// Cholesky factorization A = L·Lᵀ of a symmetric positive-definite matrix.
/// Returns std::nullopt if A is not (numerically) positive definite.
std::optional<Matrix> cholesky(const Matrix& a);

/// Solves A·x = b using a precomputed Cholesky factor L (forward + back
/// substitution). `b.size()` must equal L.rows().
std::vector<double> cholesky_solve(const Matrix& l,
                                   std::span<const double> b);

/// Inverse of a symmetric positive-definite matrix via Cholesky. Returns
/// std::nullopt if the matrix is not positive definite.
std::optional<Matrix> spd_inverse(const Matrix& a);

/// log-determinant of an SPD matrix from its Cholesky factor L:
/// log det A = 2·Σ log L(i,i).
double cholesky_logdet(const Matrix& l);

/// Jacobi eigendecomposition of a symmetric matrix. Deterministic, O(d³ per
/// sweep); fine for d ≲ 50. Eigenvalues returned in descending order.
EigenResult jacobi_eigen(const Matrix& a, int max_sweeps = 100);

/// Sample covariance matrix (divide by n-1) of the rows of X; if n < 2,
/// returns the zero matrix.
Matrix covariance(const Matrix& x);

/// Mahalanobis squared distance of `v` from `mean` under precision matrix
/// `precision` (the inverse covariance): (v−μ)ᵀ P (v−μ). Works in
/// caller-owned `scratch` (size 2d), so a pass over many rows allocates
/// nothing.
double mahalanobis_squared(std::span<const double> v,
                           std::span<const double> mean,
                           const Matrix& precision, std::span<double> scratch);

}  // namespace nurd
