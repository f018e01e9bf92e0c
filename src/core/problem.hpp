#pragma once
// Post-silicon tuning problem instance: circuit model + tunable buffers.
//
// A tuning buffer shifts the clock arrival of one flip-flop by a value
//   x_i in [r_i, r_i + tau_i]            (paper eq. 3)
// restricted to a discrete step grid (20 values in the paper's experiments,
// with tau = clock period / 8, following ref. [19]).

#include <cstddef>
#include <vector>

#include "timing/model.hpp"

namespace effitest::core {

struct TunableBuffer {
  int ff = -1;        ///< flip-flop cell id carrying this buffer
  double r = 0.0;     ///< lower end of the configurable range, ps
  double tau = 0.0;   ///< range width, ps
  int steps = 20;     ///< number of discrete values (>= 2)

  [[nodiscard]] double step_size() const {
    return tau / static_cast<double>(steps - 1);
  }
  /// Buffer delay at discrete step k in [0, steps).
  [[nodiscard]] double value(int k) const { return r + step_size() * k; }
  /// Closest discrete step for a continuous value (clamped).
  [[nodiscard]] int nearest_step(double x) const;
  /// Step closest to a zero (neutral) buffer value.
  [[nodiscard]] int neutral_step() const { return nearest_step(0.0); }
};

/// The set of tuning buffers of one circuit plus the pair-to-buffer mapping
/// the optimization problems need.
class Problem {
 public:
  /// Build from a circuit model. Buffer ranges default to the paper's
  /// setting: tau = reference_period / 8 centered on zero, 20 steps.
  /// `reference_period` <= 0 uses the nominal critical delay.
  Problem(const timing::CircuitModel& model, double reference_period = 0.0,
          int steps = 20);

  [[nodiscard]] const timing::CircuitModel& model() const { return *model_; }
  [[nodiscard]] const std::vector<TunableBuffer>& buffers() const {
    return buffers_;
  }
  [[nodiscard]] std::size_t num_buffers() const { return buffers_.size(); }
  /// buffers()[b].step_size() for every buffer, computed once at build, so
  /// a hot loop's buffer value r + step * k costs no division.
  [[nodiscard]] const std::vector<double>& step_sizes() const {
    return step_sizes_;
  }

  /// Buffer index at the source/destination of monitored pair `p`
  /// (-1 when that side has no buffer, i.e. x == 0).
  [[nodiscard]] int src_buffer(std::size_t p) const { return src_buf_[p]; }
  [[nodiscard]] int dst_buffer(std::size_t p) const { return dst_buf_[p]; }

  /// Effective clock skew x_src - x_dst of pair `p` under step assignment.
  [[nodiscard]] double pair_skew(std::size_t p,
                                 std::span<const int> steps) const;

  /// All-neutral step assignment (closest to x == 0 everywhere).
  [[nodiscard]] std::vector<int> neutral_steps() const;

  /// Reference clock period used to size the buffer ranges.
  [[nodiscard]] double reference_period() const { return reference_period_; }

 private:
  const timing::CircuitModel* model_;
  std::vector<TunableBuffer> buffers_;
  std::vector<double> step_sizes_;
  std::vector<int> src_buf_;
  std::vector<int> dst_buf_;
  double reference_period_ = 0.0;
};

/// Translate mutual-exclusion pairs expressed over a generator's
/// critical-edge indices (netlist::GeneratedCircuit::exclusive_edge_pairs)
/// into monitored-pair index pairs usable by BatchingOptions::exclusions.
/// Edges that did not become monitored pairs are skipped.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
map_edge_exclusions(
    const timing::CircuitModel& model,
    std::span<const std::pair<int, int>> edges,
    std::span<const std::pair<std::size_t, std::size_t>> exclusive_pairs);

}  // namespace effitest::core
