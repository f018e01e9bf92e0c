#include "linalg/eigen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>

#include "linalg/kernels.hpp"

namespace effitest::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r; c < n; ++c) {
      a(r, c) = dist(rng);
      a(c, r) = a(r, c);
    }
  }
  return a;
}

TEST(EigenSymmetric, DiagonalMatrix) {
  const std::vector<double> d{3.0, 1.0, 2.0};
  const EigenDecomposition e = eigen_symmetric(Matrix::diagonal(d));
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 2.0, 1e-12);
  EXPECT_NEAR(e.values[2], 1.0, 1e-12);
}

TEST(EigenSymmetric, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  const EigenDecomposition e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 1.0, 1e-10);
  // Eigenvector of 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-8);
}

TEST(EigenSymmetric, ValuesSortedDescending) {
  const EigenDecomposition e = eigen_symmetric(random_symmetric(8, 5));
  for (std::size_t i = 1; i < e.values.size(); ++i) {
    EXPECT_GE(e.values[i - 1], e.values[i]);
  }
}

TEST(EigenSymmetric, NonSquareThrows) {
  EXPECT_THROW(eigen_symmetric(Matrix(2, 3)), LinalgError);
}

TEST(EigenSymmetric, EmptyMatrix) {
  const EigenDecomposition e = eigen_symmetric(Matrix());
  EXPECT_TRUE(e.values.empty());
}

TEST(ComponentsForCoverage, PicksMinimalCount) {
  EigenDecomposition e;
  e.values = {8.0, 1.0, 1.0};  // total 10
  EXPECT_EQ(e.components_for_coverage(0.79), 1u);
  EXPECT_EQ(e.components_for_coverage(0.81), 2u);
  EXPECT_EQ(e.components_for_coverage(1.0), 3u);
}

TEST(ComponentsForCoverage, IgnoresNegativeEigenvalues) {
  EigenDecomposition e;
  e.values = {5.0, -2.0};
  EXPECT_EQ(e.components_for_coverage(0.99), 1u);
}

TEST(ComponentsForCoverage, AllZeroReturnsOne) {
  EigenDecomposition e;
  e.values = {0.0, 0.0};
  EXPECT_EQ(e.components_for_coverage(0.9), 1u);
}

class EigenPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EigenPropertyTest, ReconstructionAndOrthogonality) {
  const std::uint64_t seed = GetParam();
  const std::size_t n = 2 + seed % 10;
  const Matrix a = random_symmetric(n, seed);
  const EigenDecomposition e = eigen_symmetric(a);

  // V diag(values) V^T == A.
  const Matrix lambda = Matrix::diagonal(e.values);
  const Matrix recon = e.vectors * lambda * e.vectors.transposed();
  EXPECT_TRUE(recon.approx_equal(a, 1e-7));

  // V^T V == I.
  EXPECT_TRUE((e.vectors.transposed() * e.vectors)
                  .approx_equal(Matrix::identity(n), 1e-8));

  // Trace preservation.
  double trace_a = 0.0;
  double sum_values = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trace_a += a(i, i);
    sum_values += e.values[i];
  }
  EXPECT_NEAR(trace_a, sum_values, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EigenPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// -- Bit identity against the eager reference Jacobi --------------------------

/// Rank-deficient equicorrelated covariance: path i copies base path i % m,
/// so duplicated rows give exactly tied loadings in exact arithmetic.
Matrix duplicated_equicorrelated(std::size_t n) {
  const std::size_t m = std::max<std::size_t>(1, n / 3);
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t br = r % m;
      const std::size_t bc = c % m;
      const double sr = 1.0 + 0.125 * static_cast<double>(br % 5);
      const double sc = 1.0 + 0.125 * static_cast<double>(bc % 5);
      a(r, c) = sr * sc * (br == bc ? 1.0 : 0.97);
    }
  }
  return a;
}

/// Block-diagonal up to a permutation: entry (r, c) is non-zero only when
/// r % 4 == c % 4, so skipped rotations (|a_pq| <= 1e-300) interleave with
/// applied ones inside every p-loop.
Matrix interleaved_block_diagonal(std::size_t n, std::uint64_t seed) {
  Matrix a = random_symmetric(n, seed);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r % 4 != c % 4) a(r, c) = 0.0;
    }
  }
  return a;
}

void expect_bit_identical(const EigenDecomposition& got,
                          const EigenDecomposition& want,
                          const std::string& what) {
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  for (std::size_t i = 0; i < want.values.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.values[i]),
              std::bit_cast<std::uint64_t>(want.values[i]))
        << what << " value " << i << ": " << got.values[i] << " vs "
        << want.values[i];
  }
  ASSERT_EQ(got.vectors.rows(), want.vectors.rows()) << what;
  ASSERT_EQ(got.vectors.cols(), want.vectors.cols()) << what;
  for (std::size_t r = 0; r < want.vectors.rows(); ++r) {
    for (std::size_t c = 0; c < want.vectors.cols(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.vectors(r, c)),
                std::bit_cast<std::uint64_t>(want.vectors(r, c)))
          << what << " vector (" << r << ", " << c << "): "
          << got.vectors(r, c) << " vs " << want.vectors(r, c);
    }
  }
}

TEST(EigenSymmetric, BitIdenticalToReferenceJacobi) {
  // Sizes cover the empty and 1x1 cases and ragged 4-row interleave tails;
  // 1 and 2 sweeps compare mid-convergence states, 64 the converged one.
  for (std::size_t n : {0, 1, 2, 3, 5, 17, 64, 130, 321}) {
    const Matrix inputs[] = {random_symmetric(n, 100 + n),
                             duplicated_equicorrelated(n),
                             interleaved_block_diagonal(n, 200 + n)};
    const char* const kinds[] = {"random", "duplicated", "block-diagonal"};
    for (std::size_t k = 0; k < 3; ++k) {
      for (std::size_t sweeps : {1, 2, 64}) {
        const std::string what = std::string(kinds[k]) +
                                 " n=" + std::to_string(n) +
                                 " sweeps=" + std::to_string(sweeps);
        expect_bit_identical(
            eigen_symmetric(inputs[k], sweeps),
            kernels::reference_eigen_symmetric(inputs[k], sweeps), what);
      }
    }
  }
}

}  // namespace
}  // namespace effitest::linalg
