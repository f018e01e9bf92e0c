#pragma once
// Symmetric eigendecomposition (cyclic Jacobi).
//
// Used for the PCA step of EffiTest's path selection (paper §3.1): the
// covariance matrix of a path group is decomposed into principal components,
// and one representative path is chosen per significant component.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace effitest::linalg {

/// Eigendecomposition A = V * diag(values) * V^T of a symmetric matrix.
/// Eigenvalues are sorted in DESCENDING order; column j of `vectors` is the
/// unit eigenvector for values[j].
struct EigenDecomposition {
  std::vector<double> values;
  Matrix vectors;

  /// Smallest number of leading components whose eigenvalue mass reaches
  /// `coverage` (in (0,1]) of the total. Non-positive eigenvalues contribute
  /// nothing. Returns at least 1 for a non-empty decomposition.
  [[nodiscard]] std::size_t components_for_coverage(double coverage) const;

  /// Kaiser-style count: components whose eigenvalue reaches `scale` times
  /// the average eigenvalue (the white-noise floor). Unlike the coverage
  /// rule this is stable under group size and under uniform independent-
  /// variance inflation (the Fig.-7 protocol): shared factor directions
  /// stay above the floor, per-path noise stays below it. Returns at least
  /// 1 for a non-empty decomposition.
  [[nodiscard]] std::size_t components_above_mean(double scale) const;
};

/// Cyclic Jacobi eigendecomposition for symmetric matrices.
///
/// `max_sweeps` bounds the number of full off-diagonal sweeps; convergence is
/// declared when the off-diagonal Frobenius mass falls below `tol` times the
/// total Frobenius norm. Throws LinalgError for non-square input.
[[nodiscard]] EigenDecomposition eigen_symmetric(Matrix a,
                                                 std::size_t max_sweeps = 64,
                                                 double tol = 1e-12);

}  // namespace effitest::linalg
