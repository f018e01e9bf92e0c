#pragma once
// Two-phase primal simplex for the LP relaxation of a Model.
//
// The implementation is a dense tableau method with:
//  * general variable bounds handled by substitution (shift / mirror / split),
//  * finite upper bounds added as explicit rows,
//  * phase-1 artificial variables and redundant-row elimination,
//  * Dantzig pricing with automatic fallback to Bland's rule (anti-cycling).
//
// Problem sizes in EffiTest are small (a few hundred rows/columns for the
// alignment ILP relaxations), so a dense tableau is the simplest correct tool.

#include <cstdint>
#include <span>
#include <vector>

#include "lp/model.hpp"

namespace effitest::lp {

enum class SolveStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNodeLimit,
};

struct SimplexOptions {
  int max_iterations = 200000;   ///< pivot limit across both phases
  double tol = 1e-9;             ///< pivot / reduced-cost tolerance
  double feas_tol = 1e-7;        ///< phase-1 feasibility threshold
};

struct LpSolution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  ///< one entry per model variable
  int iterations = 0;
};

/// Solve the LP relaxation of `model` (integrality ignored).
[[nodiscard]] LpSolution solve_lp(const Model& model,
                                  const SimplexOptions& options = {});

}  // namespace effitest::lp
