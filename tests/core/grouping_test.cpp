#include "core/grouping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace effitest::core {
namespace {

/// Block covariance: two internal-rho blocks with weak cross correlation.
linalg::Matrix two_block_cov(std::size_t n1, std::size_t n2, double rho_in,
                             double rho_cross) {
  const std::size_t n = n1 + n2;
  linalg::Matrix cov(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool same_block = (i < n1) == (j < n1);
      cov(i, j) = i == j ? 1.0 : (same_block ? rho_in : rho_cross);
    }
  }
  return cov;
}

TEST(SelectPaths, EmptyCovariance) {
  const SelectionResult r = select_paths(linalg::Matrix());
  EXPECT_TRUE(r.groups.empty());
  EXPECT_TRUE(r.tested.empty());
}

TEST(SelectPaths, SingleHighCorrelationBlockNeedsFewTests) {
  linalg::Matrix cov = two_block_cov(10, 0, 0.99, 0.0);
  const SelectionResult r = select_paths(cov);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].members.size(), 10u);
  EXPECT_DOUBLE_EQ(r.groups[0].threshold, 0.95);
  // One dominant PC -> very few representatives.
  EXPECT_LE(r.tested.size(), 2u);
}

TEST(SelectPaths, TwoBlocksSeparate) {
  linalg::Matrix cov = two_block_cov(6, 6, 0.99, 0.1);
  const SelectionResult r = select_paths(cov);
  ASSERT_GE(r.groups.size(), 2u);
  // First group grabs exactly one block.
  EXPECT_EQ(r.groups[0].members.size(), 6u);
  // Every path lands in exactly one group.
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const PathGroup& g : r.groups) {
    for (std::size_t m : g.members) {
      EXPECT_TRUE(seen.insert(m).second) << "duplicate member " << m;
    }
    total += g.members.size();
  }
  EXPECT_EQ(total, 12u);
}

TEST(SelectPaths, ThresholdDecreasesPerRound) {
  linalg::Matrix cov = two_block_cov(4, 4, 0.99, 0.2);
  const SelectionResult r = select_paths(cov);
  for (std::size_t g = 1; g < r.groups.size(); ++g) {
    EXPECT_LT(r.groups[g].threshold, r.groups[g - 1].threshold);
  }
}

TEST(SelectPaths, IndependentPathsAllTestedEventually) {
  // Identity covariance: no correlation to exploit; PCA needs all
  // components, so every path in a group gets selected.
  const SelectionResult r = select_paths(linalg::Matrix::identity(5));
  EXPECT_EQ(r.tested.size(), 5u);
}

TEST(SelectPaths, SelectedAreGroupMembers) {
  linalg::Matrix cov = two_block_cov(5, 7, 0.97, 0.3);
  const SelectionResult r = select_paths(cov);
  for (const PathGroup& g : r.groups) {
    for (std::size_t s : g.selected) {
      EXPECT_TRUE(std::find(g.members.begin(), g.members.end(), s) !=
                  g.members.end());
    }
    EXPECT_EQ(g.selected.size(),
              std::min(g.num_components, g.members.size()));
  }
}

TEST(SelectPaths, TestedIsSortedUnion) {
  linalg::Matrix cov = two_block_cov(5, 7, 0.97, 0.3);
  const SelectionResult r = select_paths(cov);
  EXPECT_TRUE(std::is_sorted(r.tested.begin(), r.tested.end()));
  std::size_t from_groups = 0;
  for (const PathGroup& g : r.groups) from_groups += g.selected.size();
  EXPECT_EQ(r.tested.size(), from_groups);
}

TEST(SelectPaths, PcaCoverageControlsSelectionSize) {
  linalg::Matrix cov = two_block_cov(12, 0, 0.9, 0.0);
  GroupingOptions low;
  low.use_kaiser = false;
  low.pca_coverage = 0.80;
  GroupingOptions high;
  high.use_kaiser = false;
  high.pca_coverage = 0.999;
  EXPECT_LE(select_paths(cov, low).tested.size(),
            select_paths(cov, high).tested.size());
}

TEST(SelectPaths, NonSquareThrows) {
  EXPECT_THROW(select_paths(linalg::Matrix(2, 3)), std::invalid_argument);
}

TEST(SelectPaths, LargeGroupSubsamplingKeepsSelectionSmall) {
  // A 500-member equicorrelated block with the subsample cap engaged must
  // still be recognized as a one/two-component group.
  const std::size_t n = 500;
  linalg::Matrix cov(n, n, 0.97);
  for (std::size_t i = 0; i < n; ++i) cov(i, i) = 1.0;
  GroupingOptions opts;
  opts.pca_max_block = 64;
  // Coverage below the block correlation: one dominant PC regardless of
  // block size (coverage above rho would need O(n) components).
  opts.pca_coverage = 0.90;
  const SelectionResult r = select_paths(cov, opts);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].members.size(), n);
  EXPECT_LE(r.tested.size(), 3u);
  for (std::size_t s : r.tested) EXPECT_LT(s, n);
}

TEST(SelectPaths, SubsampleMatchesFullPcaComponentCount) {
  const std::size_t n = 120;
  linalg::Matrix cov = two_block_cov(60, 60, 0.96, 0.3);
  (void)n;
  GroupingOptions full;
  full.pca_max_block = 1000;
  full.pca_coverage = 0.90;  // below rho_in: size-independent PC count
  GroupingOptions capped;
  capped.pca_max_block = 40;
  capped.pca_coverage = 0.90;
  const SelectionResult a = select_paths(cov, full);
  const SelectionResult b = select_paths(cov, capped);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_NEAR(static_cast<double>(a.groups[g].num_components),
                static_cast<double>(b.groups[g].num_components), 1.0);
  }
}

TEST(SelectPaths, DuplicatedPathTiesArePinned) {
  // Path i copies base path i % 20, so every base appears three times with
  // identical covariance rows: in exact arithmetic each PC's loadings tie
  // across the copies, and the representative is decided by the last bits
  // of the eigenvectors. Bases 0-7 form a rho = 0.97 cluster, bases 8-13 a
  // rho = 0.92 cluster, bases 14-19 are nearly independent (rho = 0.05);
  // clusters correlate at 0.1. The picks below were recorded with the
  // eager cyclic Jacobi; another eigensolver, even an exact one, may pick
  // another copy.
  constexpr std::size_t kPaths = 60;
  constexpr std::size_t kBases = 20;
  const auto cluster = [](std::size_t b) -> std::size_t {
    return b < 8 ? 0 : (b < 14 ? 1 : 2);
  };
  const double rho[] = {0.97, 0.92, 0.05};
  linalg::Matrix cov(kPaths, kPaths);
  for (std::size_t r = 0; r < kPaths; ++r) {
    for (std::size_t c = 0; c < kPaths; ++c) {
      const std::size_t br = r % kBases;
      const std::size_t bc = c % kBases;
      const double corr =
          br == bc ? 1.0
                   : (cluster(br) == cluster(bc) ? rho[cluster(br)] : 0.1);
      cov(r, c) = (1.0 + 0.125 * static_cast<double>(br % 5)) *
                  (1.0 + 0.125 * static_cast<double>(bc % 5)) * corr;
    }
  }
  GroupingOptions opts;
  opts.corr_step = 0.5;  // 0.95 -> 0.45 -> -0.05 (catch-all)
  const SelectionResult r = select_paths(cov, opts);

  ASSERT_EQ(r.groups.size(), 3u);
  EXPECT_EQ(r.groups[0].members.size(), 24u);
  EXPECT_EQ(r.groups[0].num_components, 1u);
  EXPECT_EQ(r.groups[0].selected, (std::vector<std::size_t>{44}));
  EXPECT_EQ(r.groups[1].members.size(), 18u);
  EXPECT_EQ(r.groups[1].num_components, 1u);
  EXPECT_EQ(r.groups[1].selected, (std::vector<std::size_t>{9}));
  EXPECT_EQ(r.groups[2].members.size(), 18u);
  EXPECT_EQ(r.groups[2].num_components, 6u);
  EXPECT_EQ(r.groups[2].selected,
            (std::vector<std::size_t>{14, 15, 36, 37, 38, 39}));
}

TEST(CorrelationClusters, PartitionIsComplete) {
  linalg::Matrix cov = two_block_cov(4, 9, 0.98, 0.15);
  const auto clusters = correlation_clusters(cov);
  std::set<std::size_t> seen;
  for (const auto& cl : clusters) {
    for (std::size_t m : cl) EXPECT_TRUE(seen.insert(m).second);
  }
  EXPECT_EQ(seen.size(), 13u);
}

TEST(CorrelationClusters, NegativeThresholdSwallowsRest) {
  // Anti-correlated pair: eventually grouped when threshold <= 0.
  linalg::Matrix cov{{1.0, -0.9}, {-0.9, 1.0}};
  GroupingOptions opts;
  opts.corr_start = 0.95;
  opts.corr_step = 0.5;  // 0.95 -> 0.45 -> -0.05 (catch-all)
  const auto clusters = correlation_clusters(cov, opts);
  std::size_t total = 0;
  for (const auto& cl : clusters) total += cl.size();
  EXPECT_EQ(total, 2u);
}

}  // namespace
}  // namespace effitest::core
