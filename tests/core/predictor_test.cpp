#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

namespace effitest::core {
namespace {

// A predictor over a fresh gain, at the flow's jitter.
DelayPredictor make_predictor(const linalg::Matrix& cov,
                              std::vector<double> means,
                              std::vector<std::size_t> tested) {
  return DelayPredictor(
      stats::PredictionGain::compute(cov, std::move(tested), 1e-9),
      std::move(means));
}

TEST(DelayPredictor, TestedPathsKeepMeasuredBounds) {
  const linalg::Matrix cov{{1.0, 0.8}, {0.8, 1.0}};
  const DelayPredictor pred = make_predictor(cov, {100.0, 100.0}, {0});
  const std::vector<double> ml{98.0};
  const std::vector<double> mu{99.0};
  const DelayBounds b = pred.predict(ml, mu);
  EXPECT_DOUBLE_EQ(b.lower[0], 98.0);
  EXPECT_DOUBLE_EQ(b.upper[0], 99.0);
}

TEST(DelayPredictor, PredictedBoundsAreMuPm3Sigma) {
  const double rho = 0.8;
  const linalg::Matrix cov{{1.0, rho}, {rho, 1.0}};
  const DelayPredictor pred = make_predictor(cov, {100.0, 100.0}, {1});
  // Measured upper bound 102 -> innovation +2 -> mu' = 100 + rho*2.
  const std::vector<double> ml{101.0};
  const std::vector<double> mu{102.0};
  const DelayBounds b = pred.predict(ml, mu);
  const double mu_post = 100.0 + rho * 2.0;
  const double sigma_post = std::sqrt(1.0 - rho * rho);
  EXPECT_NEAR(b.lower[0], mu_post - 3.0 * sigma_post, 1e-10);
  EXPECT_NEAR(b.upper[0], mu_post + 3.0 * sigma_post, 1e-10);
}

TEST(DelayPredictor, ConservativeUsesUpperBoundsOnly) {
  // Different lower bounds must not change the prediction (§3.4: the upper
  // bounds feed eq. 4).
  const linalg::Matrix cov{{1.0, 0.5}, {0.5, 1.0}};
  const DelayPredictor pred = make_predictor(cov, {10.0, 10.0}, {1});
  const DelayBounds a =
      pred.predict(std::vector<double>{9.0}, std::vector<double>{11.0});
  const DelayBounds b =
      pred.predict(std::vector<double>{5.0}, std::vector<double>{11.0});
  EXPECT_DOUBLE_EQ(a.lower[0], b.lower[0]);
  EXPECT_DOUBLE_EQ(a.upper[0], b.upper[0]);
}

TEST(DelayPredictor, HighCorrelationShrinksPredictedRange) {
  const linalg::Matrix loose{{1.0, 0.3}, {0.3, 1.0}};
  const linalg::Matrix tight{{1.0, 0.99}, {0.99, 1.0}};
  const DelayPredictor p_loose = make_predictor(loose, {0.0, 0.0}, {1});
  const DelayPredictor p_tight = make_predictor(tight, {0.0, 0.0}, {1});
  const std::vector<double> m{0.0};
  const double w_loose = p_loose.predict(m, m).upper[0] -
                         p_loose.predict(m, m).lower[0];
  const double w_tight = p_tight.predict(m, m).upper[0] -
                         p_tight.predict(m, m).lower[0];
  EXPECT_LT(w_tight, w_loose);
}

TEST(DelayPredictor, PosteriorSigmaOrderMatchesPredictedIndices) {
  const linalg::Matrix cov{
      {1.0, 0.9, 0.1}, {0.9, 1.0, 0.1}, {0.1, 0.1, 1.0}};
  const DelayPredictor pred = make_predictor(cov, {5.0, 5.0, 5.0}, {1});
  const stats::PredictionGain& gain = *pred.shared_gain();
  ASSERT_EQ(gain.predicted.size(), 2u);
  EXPECT_EQ(gain.predicted[0], 0u);  // correlated with tested
  EXPECT_EQ(gain.predicted[1], 2u);  // nearly independent
  EXPECT_LT(gain.posterior_sigma[0], gain.posterior_sigma[1]);
}

TEST(DelayPredictor, SizeValidation) {
  const linalg::Matrix cov = linalg::Matrix::identity(3);
  EXPECT_THROW(make_predictor(cov, {1.0, 2.0}, {0}), std::invalid_argument);
  EXPECT_THROW(DelayPredictor(nullptr, {1.0}), std::invalid_argument);
  const DelayPredictor pred = make_predictor(cov, {1.0, 2.0, 3.0}, {0, 2});
  EXPECT_THROW(pred.predict(std::vector<double>{1.0},
                            std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(DelayPredictor, AllTestedNoPrediction) {
  const linalg::Matrix cov = linalg::Matrix::identity(2);
  const DelayPredictor pred = make_predictor(cov, {1.0, 2.0}, {0, 1});
  EXPECT_TRUE(pred.shared_gain()->predicted.empty());
  const std::vector<double> ml{0.5, 1.5};
  const std::vector<double> mu{1.5, 2.5};
  const DelayBounds b = pred.predict(ml, mu);
  EXPECT_DOUBLE_EQ(b.lower[1], 1.5);
  EXPECT_DOUBLE_EQ(b.upper[1], 2.5);
}

}  // namespace
}  // namespace effitest::core
