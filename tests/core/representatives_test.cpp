// Procedure 1's per-group PCA pick: one representative per significant
// component, the not-yet-taken path with the largest |loading| on it.

#include <gtest/gtest.h>

#include <cmath>

#include "core/grouping.hpp"

namespace effitest::core {
namespace {

TEST(SelectRepresentatives, DiagonalCovariancePicksByVariance) {
  const std::vector<double> d{1.0, 9.0, 4.0};
  const linalg::EigenDecomposition pca =
      linalg::eigen_symmetric(linalg::Matrix::diagonal(d));
  EXPECT_NEAR(std::abs(pca.vectors(1, 0)), 1.0, 1e-8);
  EXPECT_EQ(select_representatives(pca, 3),
            (std::vector<std::size_t>{1, 2, 0}));
}

TEST(SelectRepresentatives, PicksLargestLoadingPerComponent) {
  // Two independent blocks: {0,1} strongly coupled, {2} independent.
  const linalg::Matrix cov{
      {1.0, 0.99, 0.0}, {0.99, 1.0, 0.0}, {0.0, 0.0, 2.0}};
  const linalg::EigenDecomposition pca = linalg::eigen_symmetric(cov);
  const std::vector<std::size_t> reps = select_representatives(pca, 2);
  ASSERT_EQ(reps.size(), 2u);
  // Components: variance-2 variable (index 2) and the coupled pair; one rep
  // from each, never both members of the coupled pair.
  EXPECT_NE(reps[0], reps[1]);
  const bool has_block = reps[0] == 2 || reps[1] == 2;
  EXPECT_TRUE(has_block);
}

TEST(SelectRepresentatives, NoDuplicates) {
  linalg::Matrix cov(4, 4, 0.9);
  for (std::size_t i = 0; i < 4; ++i) cov(i, i) = 1.0;
  const linalg::EigenDecomposition pca = linalg::eigen_symmetric(cov);
  const std::vector<std::size_t> reps = select_representatives(pca, 4);
  ASSERT_EQ(reps.size(), 4u);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (std::size_t j = i + 1; j < reps.size(); ++j) {
      EXPECT_NE(reps[i], reps[j]);
    }
  }
}

TEST(SelectRepresentatives, RequestMoreThanVariables) {
  const linalg::EigenDecomposition pca =
      linalg::eigen_symmetric(linalg::Matrix::identity(2));
  EXPECT_EQ(select_representatives(pca, 5).size(), 2u);
}

TEST(SelectRepresentatives, ZeroComponents) {
  const linalg::EigenDecomposition pca =
      linalg::eigen_symmetric(linalg::Matrix::identity(2));
  EXPECT_TRUE(select_representatives(pca, 0).empty());
}

TEST(SelectPaths, AsymmetryIsAveragedAway) {
  // The per-group PCA block is symmetrized before decomposition, so a
  // slightly asymmetric covariance selects like its symmetric average.
  const linalg::Matrix cov{
      {2.0, 1.98, 0.1}, {1.96, 2.0, 0.1}, {0.1, 0.1, 1.0}};
  linalg::Matrix sym = cov;
  sym.symmetrize();
  const SelectionResult a = select_paths(cov);
  const SelectionResult b = select_paths(sym);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].members, b.groups[g].members);
    EXPECT_EQ(a.groups[g].num_components, b.groups[g].num_components);
    EXPECT_EQ(a.groups[g].selected, b.groups[g].selected);
  }
}

}  // namespace
}  // namespace effitest::core
