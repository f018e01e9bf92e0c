#include "core/configurator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>

#include "lp/solver.hpp"

namespace effitest::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Aggregated difference-constraint data in picoseconds.
/// Effective bound at relaxation xi:  min(hard, soft + xi).
struct Bound {
  double hard = kInf;
  double soft = kInf;
  [[nodiscard]] double at(double xi) const {
    return std::min(hard, soft + xi);
  }
  void tighten_hard(double v) { hard = std::min(hard, v); }
  void tighten_soft(double v) { soft = std::min(soft, v); }
};

struct DiffProblem {
  std::size_t nb = 0;
  double step = 0.0;
  std::vector<double> r;              // per buffer range start
  int max_step = 0;
  std::map<std::pair<int, int>, Bound> pair_upper;  // x_i - x_j <= bound
  std::vector<Bound> var_upper;       // x_b <= bound
  std::vector<Bound> var_lower_neg;   // -x_b <= bound  (i.e. x_b >= -bound)
  double xi_floor = 0.0;
  bool hard_infeasible = false;

  explicit DiffProblem(const Problem& p) {
    nb = p.num_buffers();
    r.resize(nb);
    step = p.buffers().empty() ? 1.0 : p.buffers()[0].step_size();
    max_step = p.buffers().empty() ? 0 : p.buffers()[0].steps - 1;
    for (std::size_t b = 0; b < nb; ++b) r[b] = p.buffers()[b].r;
    var_upper.resize(nb);
    var_lower_neg.resize(nb);
  }

  /// Add x_i - x_j <= c (buffer indices; -1 side contributes x = 0).
  void add_upper(int i, int j, double c, bool soft) {
    if (i >= 0 && j >= 0) {
      if (i == j) {
        if (soft) {
          if (c < 0.0) xi_floor = std::max(xi_floor, -c);
        } else if (c < 0.0) {
          hard_infeasible = true;
        }
        return;
      }
      Bound& b = pair_upper[{i, j}];
      soft ? b.tighten_soft(c) : b.tighten_hard(c);
    } else if (i >= 0) {
      Bound& b = var_upper[static_cast<std::size_t>(i)];
      soft ? b.tighten_soft(c) : b.tighten_hard(c);
    } else if (j >= 0) {
      Bound& b = var_lower_neg[static_cast<std::size_t>(j)];
      soft ? b.tighten_soft(c) : b.tighten_hard(c);
    } else {
      // Constant constraint 0 <= c.
      if (soft) {
        if (c < 0.0) xi_floor = std::max(xi_floor, -c);
      } else if (c < -1e-12) {
        hard_infeasible = true;
      }
    }
  }
};

constexpr std::int64_t kNoEdge = std::numeric_limits<std::int64_t>::max() / 4;

/// Bellman-Ford feasibility of the step-grid difference system at xi.
/// On success fills `steps` with a feasible integer assignment.
bool solve_at(const DiffProblem& dp, double xi, std::vector<int>& steps) {
  const std::size_t n = dp.nb + 1;  // + ground node (index nb)
  const std::size_t g = dp.nb;
  std::vector<std::vector<std::int64_t>> w(n,
                                           std::vector<std::int64_t>(n, kNoEdge));
  const auto tighten = [&](std::size_t from, std::size_t to, double bound_ps,
                           double offset_ps) {
    // Encodes s_to - s_from <= floor((bound_ps + offset_ps) / step).
    const double v = (bound_ps + offset_ps) / dp.step;
    if (v >= 1e15) return;
    if (v <= -1e15) {
      w[from][to] = -kNoEdge;
      return;
    }
    w[from][to] = std::min(w[from][to],
                           static_cast<std::int64_t>(std::floor(v + 1e-9)));
  };

  for (std::size_t b = 0; b < dp.nb; ++b) {
    // Range: 0 <= s_b <= max_step.
    w[g][b] = dp.max_step;
    w[b][g] = 0;
    const Bound& ub = dp.var_upper[b];
    if (ub.at(xi) < kInf) tighten(g, b, ub.at(xi), -dp.r[b]);
    const Bound& lbn = dp.var_lower_neg[b];
    // -x_b <= c  =>  s_g - s_b <= (c + r_b)/step.
    if (lbn.at(xi) < kInf) tighten(b, g, lbn.at(xi), dp.r[b]);
  }
  for (const auto& [key, bound] : dp.pair_upper) {
    const auto [i, j] = key;
    const double c = bound.at(xi);
    if (c >= kInf) continue;
    // x_i - x_j <= c  =>  s_i - s_j <= (c - r_i + r_j)/step.
    tighten(static_cast<std::size_t>(j), static_cast<std::size_t>(i), c,
            -dp.r[static_cast<std::size_t>(i)] +
                dp.r[static_cast<std::size_t>(j)]);
  }

  // Bellman-Ford from an implicit super-source (all distances start at 0).
  std::vector<std::int64_t> dist(n, 0);
  bool changed = true;
  for (std::size_t round = 0; round < n && changed; ++round) {
    changed = false;
    for (std::size_t from = 0; from < n; ++from) {
      for (std::size_t to = 0; to < n; ++to) {
        const std::int64_t e = w[from][to];
        if (e >= kNoEdge) continue;
        if (e <= -kNoEdge) return false;  // encodes an impossible constraint
        if (dist[from] + e < dist[to]) {
          dist[to] = dist[from] + e;
          changed = true;
        }
      }
    }
  }
  if (changed) return false;  // negative cycle -> infeasible

  steps.assign(dp.nb, 0);
  for (std::size_t b = 0; b < dp.nb; ++b) {
    const std::int64_t s = dist[b] - dist[g];
    if (s < 0 || s > dp.max_step) return false;  // defensive; bounded by edges
    steps[b] = static_cast<int>(s);
  }
  return true;
}

ConfigResult solve_difference(const DiffProblem& dp,
                              std::span<const double> lower,
                              std::span<const double> upper,
                              const ConfigOptions& options) {
  ConfigResult out;
  if (dp.hard_infeasible) return out;

  std::vector<int> steps;
  if (solve_at(dp, dp.xi_floor, steps)) {
    out.feasible = true;
    out.steps = std::move(steps);
    out.xi = dp.xi_floor;
    return out;
  }
  // Find a feasible upper end for the bisection.
  double span = 1.0;
  for (std::size_t p = 0; p < lower.size(); ++p) {
    span = std::max(span, upper[p] - lower[p]);
  }
  double hi = dp.xi_floor + span + dp.step;
  if (!solve_at(dp, hi, steps)) {
    // One more relaxation attempt before declaring the chip unconfigurable:
    // soft constraints are dominated by hard ones beyond xi = span, so this
    // is genuinely infeasible.
    return out;
  }
  double lo = dp.xi_floor;
  while (hi - lo > options.xi_tolerance_ps) {
    const double mid = 0.5 * (lo + hi);
    if (solve_at(dp, mid, steps)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  if (!solve_at(dp, hi, steps)) return out;
  out.feasible = true;
  out.steps = std::move(steps);
  out.xi = hi;
  return out;
}

/// Number of monitored pairs; throws unless both bound spans have one
/// entry per pair.
std::size_t check_bounds(const Problem& problem, std::span<const double> lower,
                         std::span<const double> upper) {
  const std::size_t np = problem.model().num_pairs();
  if (lower.size() != np || upper.size() != np) {
    throw std::invalid_argument("configure_buffers: bounds size mismatch");
  }
  return np;
}

}  // namespace

ConfigResult configure_buffers_milp(const Problem& problem, double td,
                                    std::span<const double> lower,
                                    std::span<const double> upper,
                                    std::span<const HoldConstraintX> hold) {
  check_bounds(problem, lower, upper);
  lp::Model model;
  const std::size_t nb = problem.num_buffers();
  std::vector<int> s_var(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    s_var[b] = model.add_integer(
        0.0, static_cast<double>(problem.buffers()[b].steps - 1), 0.0,
        "s" + std::to_string(b));
  }
  double span = 1.0;
  for (std::size_t p = 0; p < lower.size(); ++p) {
    span = std::max(span, upper[p] - lower[p]);
  }
  const int xi_var = model.add_continuous(0.0, 2.0 * span + 10.0, 1.0, "xi");

  const auto x_terms = [&](int buf, double sign, std::vector<lp::Term>& terms,
                           double& constant) {
    if (buf < 0) return;
    const auto& b = problem.buffers()[static_cast<std::size_t>(buf)];
    constant += sign * b.r;
    terms.push_back({s_var[static_cast<std::size_t>(buf)], sign * b.step_size()});
  };

  for (std::size_t p = 0; p < lower.size(); ++p) {
    const int dp_var = model.add_continuous(lower[p], upper[p], 0.0,
                                            "D" + std::to_string(p));
    // (16): D' + x_i - x_j <= td.
    std::vector<lp::Term> c{{dp_var, 1.0}};
    double constant = 0.0;
    x_terms(problem.src_buffer(p), +1.0, c, constant);
    x_terms(problem.dst_buffer(p), -1.0, c, constant);
    model.add_constraint(std::move(c), lp::Sense::kLessEqual, td - constant);
    // (17): xi >= u - D'.
    model.add_constraint({{xi_var, 1.0}, {dp_var, 1.0}},
                         lp::Sense::kGreaterEqual, upper[p]);
  }
  // (21): hold bounds.
  for (const HoldConstraintX& h : hold) {
    std::vector<lp::Term> c;
    double constant = 0.0;
    x_terms(h.src_buf, +1.0, c, constant);
    x_terms(h.dst_buf, -1.0, c, constant);
    model.add_constraint(std::move(c), lp::Sense::kGreaterEqual,
                         h.lambda - constant);
  }

  const lp::Solution sol = lp::solve(model);
  ConfigResult out;
  if (!sol.feasible()) return out;
  out.feasible = true;
  out.xi = sol.values[static_cast<std::size_t>(xi_var)];
  out.steps.resize(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    out.steps[b] = static_cast<int>(
        std::lround(sol.values[static_cast<std::size_t>(s_var[b])]));
  }
  return out;
}

ConfigResult configure_buffers(const Problem& problem, double designated_period,
                               std::span<const double> lower,
                               std::span<const double> upper,
                               std::span<const HoldConstraintX> hold,
                               const ConfigOptions& options) {
  const std::size_t np = check_bounds(problem, lower, upper);
  DiffProblem dp(problem);
  for (std::size_t p = 0; p < np; ++p) {
    const int i = problem.src_buffer(p);
    const int j = problem.dst_buffer(p);
    // Hard: x_i - x_j <= td - l (keeps D' >= l feasible).
    dp.add_upper(i, j, designated_period - lower[p], /*soft=*/false);
    // Soft: x_i - x_j <= td - u + xi.
    dp.add_upper(i, j, designated_period - upper[p], /*soft=*/true);
  }
  for (const HoldConstraintX& h : hold) {
    // x_i - x_j >= lambda  =>  x_j - x_i <= -lambda.
    dp.add_upper(h.dst_buf, h.src_buf, -h.lambda, /*soft=*/false);
  }
  return solve_difference(dp, lower, upper, options);
}

ConfigResult configure_ideal(const Problem& problem, double designated_period,
                             const timing::Chip& chip,
                             const ConfigOptions& options) {
  const timing::CircuitModel& model = problem.model();
  const std::size_t np = model.num_pairs();
  const double h = model.hold_time();
  // Perfect measurement: l = u = true delay; hold bounds from true margins.
  std::map<std::pair<int, int>, double> hold_merged;
  for (std::size_t p = 0; p < np; ++p) {
    const int i = problem.src_buffer(p);
    const int j = problem.dst_buffer(p);
    const double margin = h - chip.min_delay[p];
    const auto key = std::make_pair(i, j);
    const auto it = hold_merged.find(key);
    if (it == hold_merged.end()) {
      hold_merged.emplace(key, margin);
    } else {
      it->second = std::max(it->second, margin);
    }
  }
  std::vector<HoldConstraintX> hold;
  for (const auto& [key, lam] : hold_merged) {
    hold.push_back(HoldConstraintX{key.first, key.second, lam});
  }
  return configure_buffers(problem, designated_period, chip.max_delay,
                           chip.max_delay, hold, options);
}

}  // namespace effitest::core
