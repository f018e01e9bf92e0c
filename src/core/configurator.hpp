#pragma once
// Buffer configuration with delay estimation (paper §3.4, eqs. 15-18).
//
// Given per-path delay ranges [l_ij, u_ij] (measured or predicted) and hold
// bounds lambda_ij, find discrete buffer values x and assumed delays D' with
//   T_d >= D'_ij + x_i - x_j,  l <= D' <= u,  xi >= u - D'
// minimizing xi: the chip is configured assuming delays as close to their
// upper bounds as possible, which maximizes the chance of passing the final
// pass/fail test without rejecting chips through over-conservatism.
//
// Eliminating D' analytically (optimal D' = min(u, T_d - x_i + x_j)) turns
// the problem into a system of difference constraints over the buffer step
// grid plus a scalar search on xi:
//   hard:  x_i - x_j <= T_d - l_ij      (D' >= l must stay feasible)
//   soft:  x_i - x_j <= T_d - u_ij + xi
//   hold:  x_i - x_j >= lambda_ij
//   range: r <= x <= r + tau, x on the step grid.
// Feasibility for fixed xi is Bellman-Ford negative-cycle detection — the
// same machinery as classic clock-skew scheduling (Fishburn) — and xi is
// minimized by bisection. All constraint constants are floored onto the step
// grid, which is the conservative direction, and integer arithmetic makes
// the discrete solution exact. It relies on one step size shared by every
// buffer, which core::Problem guarantees.
//
// configure_buffers() is the one production solver. The literal MILP of
// eqs. 15-18 (+21), configure_buffers_milp(), is kept as the oracle that
// tests and benches cross-validate it against.

#include <span>
#include <vector>

#include "core/alignment.hpp"
#include "core/problem.hpp"
#include "timing/model.hpp"

namespace effitest::core {

struct ConfigOptions {
  double xi_tolerance_ps = 0.01;  ///< bisection resolution on xi
};

struct ConfigResult {
  bool feasible = false;
  std::vector<int> steps;  ///< discrete buffer assignment
  double xi = 0.0;         ///< achieved max distance from upper bounds
};

/// Solve eqs. 15-18 (+ hold eq. 21) for the given designated period and
/// delay ranges (indexed by monitored-pair id).
[[nodiscard]] ConfigResult configure_buffers(
    const Problem& problem, double designated_period,
    std::span<const double> lower, std::span<const double> upper,
    std::span<const HoldConstraintX> hold, const ConfigOptions& options = {});

/// Exact oracle: the same problem as the literal MILP of eqs. 15-18 (+21),
/// solved by the in-house branch & bound. For tests and benches.
[[nodiscard]] ConfigResult configure_buffers_milp(
    const Problem& problem, double designated_period,
    std::span<const double> lower, std::span<const double> upper,
    std::span<const HoldConstraintX> hold);

/// Configuration under perfect measurement: l = u = true delay and hold
/// bounds taken from the chip's true short-path delays. This is the
/// reference for column y_i of Table 2 ("ideal delay measurement").
[[nodiscard]] ConfigResult configure_ideal(const Problem& problem,
                                           double designated_period,
                                           const timing::Chip& chip,
                                           const ConfigOptions& options = {});

}  // namespace effitest::core
