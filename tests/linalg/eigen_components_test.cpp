// Component counts of a decomposed covariance, as Procedure 1 uses them:
// the coverage rule and the Kaiser (above-average eigenvalue) rule.

#include <gtest/gtest.h>

#include "linalg/eigen.hpp"

namespace effitest::linalg {
namespace {

TEST(ComponentsForCoverage, EquicorrelatedBlockHasOneDominantComponent) {
  const double rho = 0.95;
  const std::size_t n = 6;
  Matrix cov(n, n, rho);
  for (std::size_t i = 0; i < n; ++i) cov(i, i) = 1.0;
  const EigenDecomposition e = eigen_symmetric(cov);
  // lambda1 = 1 + (n-1) rho, rest = 1 - rho.
  EXPECT_NEAR(e.values[0], 1.0 + 5.0 * rho, 1e-8);
  EXPECT_NEAR(e.values[1], 1.0 - rho, 1e-8);
  EXPECT_EQ(e.components_for_coverage(0.9), 1u);
  EXPECT_EQ(e.components_for_coverage(0.999), n);
  EXPECT_EQ(e.components_above_mean(1.0), 1u);
}

TEST(ComponentsForCoverage, MonotoneInCoverage) {
  const Matrix cov{{4.0, 1.0, 0.0}, {1.0, 3.0, 0.5}, {0.0, 0.5, 2.0}};
  const EigenDecomposition e = eigen_symmetric(cov);
  std::size_t prev = 0;
  for (double coverage : {0.3, 0.6, 0.9, 0.99, 1.0}) {
    const std::size_t k = e.components_for_coverage(coverage);
    EXPECT_GE(k, prev);
    prev = k;
  }
}

TEST(ComponentsAboveMean, CountsEigenvaluesReachingScaledAverage) {
  EigenDecomposition e;
  e.values = {8.0, 1.0, 1.0};  // average 10/3
  EXPECT_EQ(e.components_above_mean(1.0), 1u);
  EXPECT_EQ(e.components_above_mean(0.25), 3u);  // floor 5/6
}

TEST(ComponentsAboveMean, EqualEigenvaluesAllCount) {
  const EigenDecomposition e = eigen_symmetric(Matrix::identity(4));
  EXPECT_EQ(e.components_above_mean(1.0), 4u);
}

TEST(ComponentsAboveMean, IgnoresNegativeEigenvalues) {
  EigenDecomposition e;
  e.values = {5.0, -2.0};  // average of the non-negative mass: 2.5
  EXPECT_EQ(e.components_above_mean(1.0), 1u);
}

TEST(ComponentsAboveMean, AtLeastOneUnlessEmpty) {
  EigenDecomposition e;
  EXPECT_EQ(e.components_above_mean(1.0), 0u);
  e.values = {1.0, 1.0};
  EXPECT_EQ(e.components_above_mean(2.0), 1u);
}

}  // namespace
}  // namespace effitest::linalg
