#pragma once
// Statistical delay prediction for untested paths (paper §3.1, §3.4).
//
// After frequency stepping measures the tested subset D_t, every untested
// delay d_k is estimated by the conditional Gaussian formulas (eqs. 4-5).
// Following §3.4, the *upper bounds* of the measured ranges feed eq. 4 so
// the estimates are conservative, and the resulting range for an estimated
// delay is mu'_k +/- 3 sigma'_k.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "stats/conditional.hpp"

namespace effitest::core {

/// Lower/upper delay bounds per path (global path indexing).
struct DelayBounds {
  std::vector<double> lower;
  std::vector<double> upper;
};

class DelayPredictor {
 public:
  /// Predict through an already-computed (and possibly shared) gain — no
  /// factorization happens here. `means` covers all paths; the tested set
  /// is the gain's measured set. This is how FlowArtifacts shares one gain
  /// across chips, reused flows and campaign jobs. Build a fresh one with
  /// `stats::PredictionGain::compute(covariance, tested, 1e-9)`.
  DelayPredictor(std::shared_ptr<const stats::PredictionGain> gain,
                 std::vector<double> means);

  /// The shared chip-independent gain: the tested (`measured`) and
  /// `predicted` index sets, W and the posterior sigmas (eq. 5).
  [[nodiscard]] const std::shared_ptr<const stats::PredictionGain>&
  shared_gain() const {
    return gain_;
  }

  /// Fill bounds for every path: tested paths keep their measured bounds;
  /// predicted paths get mu'_k +/- 3 sigma'_k with mu'_k computed from the
  /// measured *upper* bounds (conservative, §3.4).
  /// `measured` is indexed like the gain's `measured` list.
  [[nodiscard]] DelayBounds predict(
      std::span<const double> measured_lower,
      std::span<const double> measured_upper) const;

 private:
  std::shared_ptr<const stats::PredictionGain> gain_;
  std::vector<double> means_;
};

}  // namespace effitest::core
