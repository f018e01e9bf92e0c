#include "core/alignment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <tuple>

#include "lp/solver.hpp"

namespace effitest::core {

namespace {

/// Buffer value for a (possibly absent) buffer index under `steps`.
double x_of(const Problem& problem, std::span<const int> steps, int buf) {
  if (buf < 0) return 0.0;
  return problem.buffers()[static_cast<std::size_t>(buf)].value(
      steps[static_cast<std::size_t>(buf)]);
}

double objective_of(const AlignmentInstance& inst, double period,
                    std::span<const int> steps) {
  double acc = 0.0;
  for (const AlignmentEntry& e : inst.entries) {
    const double shifted = e.center + x_of(*inst.problem, steps, e.src_buf) -
                           x_of(*inst.problem, steps, e.dst_buf);
    acc += e.weight * std::abs(period - shifted);
  }
  return acc;
}

bool hold_ok(const AlignmentInstance& inst, std::span<const int> steps) {
  for (const HoldConstraintX& h : inst.hold) {
    const double skew = x_of(*inst.problem, steps, h.src_buf) -
                        x_of(*inst.problem, steps, h.dst_buf);
    if (skew < h.lambda - 1e-9) return false;
  }
  return true;
}

/// Never a buffer index: build_static(ws, kExcludeNone) keeps every entry.
constexpr int kExcludeNone = std::numeric_limits<int>::min();

/// How many of the ascending `centers` are at or below `t`: the index
/// std::upper_bound returns, counted without a branch per point.
std::size_t split_index(std::span<const double> centers, double t) {
  std::size_t k = 0;
  for (const double m : centers) k += static_cast<std::size_t>(!(t < m));
  return k;
}

/// sum over static points of w * |T - m|, from the prefix sums.
inline double static_objective(const AlignmentWorkspace& ws, double t) {
  const std::size_t k = split_index(ws.static_m, t);
  const double left = t * ws.prefix_w[k] - ws.prefix_wm[k];
  const double right = (ws.prefix_wm.back() - ws.prefix_wm[k]) -
                       t * (ws.prefix_w.back() - ws.prefix_w[k]);
  return left + right;
}

/// Static point whose cumulative weight first reaches `target` (the static
/// set is not empty).
double point_at_mass(const AlignmentWorkspace& ws, double target) {
  const std::size_t k = static_cast<std::size_t>(
      std::lower_bound(ws.prefix_w.begin() + 1, ws.prefix_w.end(), target) -
      (ws.prefix_w.begin() + 1));
  return ws.static_m[std::min(k, ws.static_m.size() - 1)];
}

/// The static point set: the entries of `ws.sorted` touching no buffer
/// `exclude`, in order (filtering a sorted list keeps it sorted), with the
/// prefix sums accumulated left to right.
void build_static(AlignmentWorkspace& ws, int exclude) {
  ws.static_m.clear();
  ws.prefix_w.assign(1, 0.0);
  ws.prefix_wm.assign(1, 0.0);
  for (const AlignmentWorkspace::SortedEntry& e : ws.sorted) {
    if (e.src_buf == exclude || e.dst_buf == exclude) continue;
    ws.static_m.push_back(e.center);
    ws.prefix_w.push_back(ws.prefix_w.back() + e.weight);
    ws.prefix_wm.push_back(ws.prefix_wm.back() + e.weight * e.center);
  }
  ++ws.static_builds;
}

/// The L1 optimum over a point multiset (static via prefix sums, dynamic
/// explicit) sits on one of the points. Candidates are the dynamic points
/// plus the static mass-crossings for every possible split of the dynamic
/// weight. Those crossings and their static objective depend only on the
/// static set and the dynamic weights, so hoist_static() computes them once
/// per static set and best_period() reuses them for every dynamic position.
void hoist_static(AlignmentWorkspace& ws) {
  double dyn_w = 0.0;
  for (const auto& p : ws.dyn) dyn_w += p.weight;
  const double half = 0.5 * (ws.prefix_w.back() + dyn_w);
  ws.static_t.clear();
  ws.static_obj.clear();
  if (ws.static_m.empty()) return;
  double left_dyn = 0.0;
  ws.static_t.push_back(point_at_mass(ws, half));
  for (const auto& p : ws.dyn) {
    left_dyn += p.weight;
    ws.static_t.push_back(point_at_mass(ws, half - left_dyn));
  }
  for (const double t : ws.static_t) {
    ws.static_obj.push_back(static_objective(ws, t));
  }
}

/// Best (T, objective) over the dynamic points (in order), then the hoisted
/// static candidates; the first strict minimum wins.
inline std::pair<double, double> best_period(const AlignmentWorkspace& ws) {
  double best_t = !ws.dyn.empty()          ? ws.dyn.front().m
                  : !ws.static_t.empty() ? ws.static_t.front()
                                         : 0.0;
  double best_obj = std::numeric_limits<double>::infinity();
  const auto consider = [&](double t, double obj) {
    for (const AlignmentWorkspace::DynPoint& p : ws.dyn) {
      obj += p.weight * std::abs(t - p.m);
    }
    if (obj < best_obj) {
      best_obj = obj;
      best_t = t;
    }
  };
  for (const AlignmentWorkspace::DynPoint& p : ws.dyn) {
    consider(p.m, static_objective(ws, p.m));
  }
  for (std::size_t j = 0; j < ws.static_t.size(); ++j) {
    consider(ws.static_t[j], ws.static_obj[j]);
  }
  return {best_t, best_obj};
}

void solve_coordinate_descent(const AlignmentInstance& inst,
                              AlignmentWorkspace& ws) {
  const Problem& problem = *inst.problem;
  AlignmentResult& out = ws.result;
  out.steps.assign(inst.current_steps.begin(), inst.current_steps.end());

  // Buffers that may move: those referenced by an entry.
  std::vector<int>& involved = ws.involved;
  involved.clear();
  if (inst.allow_buffer_moves) {
    for (const AlignmentEntry& e : inst.entries) {
      if (e.src_buf >= 0) involved.push_back(e.src_buf);
      if (e.dst_buf >= 0) involved.push_back(e.dst_buf);
    }
    std::sort(involved.begin(), involved.end());
    involved.erase(std::unique(involved.begin(), involved.end()),
                   involved.end());
  }

  // Entries / hold bounds touching each movable buffer, precomputed once.
  // In a legal batch a buffer touches at most two entries (its FF appears
  // once as source and once as sink), which is what makes the prefix-sum
  // scan below cheap. Moving buffer b cannot change the state of hold
  // bounds that do not reference b, so only those are rechecked per step.
  ws.dyn_begin.assign(1, 0);
  ws.dyn_entries.clear();
  ws.hold_begin.assign(1, 0);
  ws.hold_entries.clear();
  for (const int b : involved) {
    for (std::size_t i = 0; i < inst.entries.size(); ++i) {
      if (inst.entries[i].src_buf == b || inst.entries[i].dst_buf == b) {
        ws.dyn_entries.push_back(i);
      }
    }
    ws.dyn_begin.push_back(ws.dyn_entries.size());
    for (std::size_t h = 0; h < inst.hold.size(); ++h) {
      if (inst.hold[h].src_buf == b || inst.hold[h].dst_buf == b) {
        ws.hold_entries.push_back(h);
      }
    }
    ws.hold_begin.push_back(ws.hold_entries.size());
  }

  // TunableBuffer::value(k) is r + step_size() * k; the Problem holds the
  // step sizes (a division each), the rest is exactly what value() does.
  const std::vector<double>& step_size = problem.step_sizes();
  const auto x = [&](int buf) {
    if (buf < 0) return 0.0;
    const auto bi = static_cast<std::size_t>(buf);
    return problem.buffers()[bi].r + step_size[bi] * out.steps[bi];
  };
  const auto shifted = [&](const AlignmentEntry& e) {
    return e.center + x(e.src_buf) - x(e.dst_buf);
  };

  // Every entry at the current steps, sorted by (center, weight, index).
  // Only a move changes a center, so only a move re-sorts; each scan's
  // static set is then a filter of this list, with no sort of its own.
  const auto sort_entries = [&] {
    for (AlignmentWorkspace::SortedEntry& e : ws.sorted) {
      e.center = shifted(inst.entries[e.index]);
    }
    std::sort(ws.sorted.begin(), ws.sorted.end(),
              [](const AlignmentWorkspace::SortedEntry& a,
                 const AlignmentWorkspace::SortedEntry& b) {
                return std::tie(a.center, a.weight, a.index) <
                       std::tie(b.center, b.weight, b.index);
              });
  };
  ws.sorted.clear();
  for (std::size_t i = 0; i < inst.entries.size(); ++i) {
    const AlignmentEntry& e = inst.entries[i];
    ws.sorted.push_back({0.0, e.weight, e.src_buf, e.dst_buf, i});
  }
  sort_entries();
  {
    // Initial (T, objective) with everything static.
    build_static(ws, kExcludeNone);
    ws.dyn.clear();
    hoist_static(ws);
    const auto [t, obj] = best_period(ws);
    out.period = t;
    out.objective = obj;
  }
  double best = out.objective;

  // Rounds over the movable buffers until a full round moves nothing (at
  // most 32). A scan that moves nothing has no side effect, and a scan
  // reads only the steps and `best`, which change only on a move. So once
  // every buffer has been scanned in a row without a move (`quiet`), each
  // remaining scan of that last round would replay a no-move scan exactly:
  // stopping there gives the same result as finishing the round.
  std::size_t quiet = 0;
  for (int round = 0; round < 32 && quiet < involved.size(); ++round) {
    for (std::size_t v = 0; v < involved.size() && quiet < involved.size();
         ++v) {
      const int b = involved[v];
      const auto bi = static_cast<std::size_t>(b);
      ++ws.scans;

      // b's entries (the dynamic points) and hold bounds, with every side
      // that is not b's fixed at the current steps.
      const auto skew = [&](int src, int dst) {
        return AlignmentWorkspace::ScanTerm{src == b ? 0.0 : x(src),
                                            dst == b ? 0.0 : x(dst), src == b,
                                            dst == b};
      };
      ws.dyn.clear();
      for (std::size_t d = ws.dyn_begin[v]; d < ws.dyn_begin[v + 1]; ++d) {
        const AlignmentEntry& e = inst.entries[ws.dyn_entries[d]];
        ws.dyn.push_back({e.center, e.weight, 0.0, skew(e.src_buf, e.dst_buf)});
      }
      ws.hold_bounds.clear();
      for (std::size_t h = ws.hold_begin[v]; h < ws.hold_begin[v + 1]; ++h) {
        const HoldConstraintX& hc = inst.hold[ws.hold_entries[h]];
        ws.hold_bounds.push_back(
            {hc.lambda - 1e-9, skew(hc.src_buf, hc.dst_buf)});
      }

      // The static part (every entry not touching b) is built on the first
      // hold-feasible step, with its candidates.
      bool static_ready = false;
      const double r = problem.buffers()[bi].r;
      const double step = step_size[bi];
      const int saved = out.steps[bi];
      int best_step = saved;
      double best_t = out.period;
      for (int k = 0; k < problem.buffers()[bi].steps; ++k) {
        if (k == saved) continue;
        const double xb = r + step * k;
        bool feasible = true;
        for (std::size_t h = 0; h < ws.hold_bounds.size() && feasible; ++h) {
          const AlignmentWorkspace::HoldBound& hb = ws.hold_bounds[h];
          feasible = !(hb.skew.src(xb) - hb.skew.dst(xb) < hb.floor);
        }
        if (!feasible) continue;
        if (!static_ready) {
          build_static(ws, b);
          hoist_static(ws);
          static_ready = true;
        }
        for (AlignmentWorkspace::DynPoint& p : ws.dyn) {
          p.m = p.center + p.skew.src(xb) - p.skew.dst(xb);
        }
        ++ws.step_evals;
        const auto [t, obj] = best_period(ws);
        if (obj < best - 1e-12) {
          best = obj;
          best_step = k;
          best_t = t;
        }
      }
      out.steps[bi] = best_step;
      if (best_step != saved) {
        out.period = best_t;
        quiet = 0;
        sort_entries();
      } else {
        ++quiet;
      }
    }
  }
  out.objective = best;
  out.feasible = hold_ok(inst, out.steps);
}

/// Validates `inst`; true when it has no entries, with `out` set to the
/// no-op result (current steps, T = 0, objective 0).
bool nothing_to_align(const AlignmentInstance& inst, AlignmentResult& out) {
  if (inst.problem == nullptr) {
    throw std::invalid_argument("solve_alignment: missing problem");
  }
  if (inst.entries.empty()) {
    out.period = 0.0;
    out.steps.assign(inst.current_steps.begin(), inst.current_steps.end());
    out.objective = 0.0;
    out.feasible = true;
    return true;
  }
  if (inst.current_steps.size() != inst.problem->num_buffers()) {
    throw std::invalid_argument("solve_alignment: bad current_steps size");
  }
  return false;
}

}  // namespace

/// Builds variables T and s_b, the linear expression of
/// (T - shifted_center_p) for each entry in the requested form, then
/// solves and extracts the assignment.
AlignmentResult solve_alignment_milp(const AlignmentInstance& inst,
                                     MilpForm form) {
  AlignmentResult out;
  if (nothing_to_align(inst, out)) return out;
  const bool big_m = form == MilpForm::kBigM;
  const Problem& problem = *inst.problem;
  lp::Model model;

  // Clock period variable. Delay centers are positive in practice; give T a
  // generous box so the LP relaxation stays bounded.
  double center_span = 1.0;
  for (const AlignmentEntry& e : inst.entries) {
    center_span = std::max(center_span, std::abs(e.center));
  }
  double tau_max = 0.0;
  for (const auto& b : problem.buffers()) tau_max = std::max(tau_max, b.tau);
  const double t_hi = 2.0 * center_span + 2.0 * tau_max + 1.0;
  const int var_t = model.add_continuous(-t_hi, t_hi, 0.0, "T");

  // Step variables for involved buffers; frozen buffers contribute constants.
  std::set<int> involved_set;
  if (inst.allow_buffer_moves) {
    for (const AlignmentEntry& e : inst.entries) {
      if (e.src_buf >= 0) involved_set.insert(e.src_buf);
      if (e.dst_buf >= 0) involved_set.insert(e.dst_buf);
    }
  }
  std::vector<int> step_var(problem.num_buffers(), -1);
  for (int b : involved_set) {
    const auto& buf = problem.buffers()[static_cast<std::size_t>(b)];
    step_var[static_cast<std::size_t>(b)] = model.add_integer(
        0.0, static_cast<double>(buf.steps - 1), 0.0, "s" + std::to_string(b));
  }

  // x_b as (constant, optional step term).
  const auto x_terms = [&](int buf, double sign, std::vector<lp::Term>& terms,
                           double& constant) {
    if (buf < 0) return;
    const auto bi = static_cast<std::size_t>(buf);
    const auto& bspec = problem.buffers()[bi];
    if (step_var[bi] >= 0) {
      constant += sign * bspec.r;
      terms.push_back({step_var[bi], sign * bspec.step_size()});
    } else {
      constant += sign * bspec.value(inst.current_steps[bi]);
    }
  };

  const double big = 4.0 * (center_span + tau_max + 1.0);
  std::vector<int> eta_vars;
  eta_vars.reserve(inst.entries.size());
  for (std::size_t p = 0; p < inst.entries.size(); ++p) {
    const AlignmentEntry& e = inst.entries[p];
    const int eta =
        model.add_continuous(0.0, lp::kInf, e.weight, "eta" + std::to_string(p));
    eta_vars.push_back(eta);

    // diff_p = T - (center + x_src - x_dst): expressed as terms + constant.
    std::vector<lp::Term> diff{{var_t, 1.0}};
    double constant = -e.center;
    x_terms(e.src_buf, -1.0, diff, constant);
    x_terms(e.dst_buf, +1.0, diff, constant);
    // `diff` terms + constant == diff_p.

    if (!big_m) {
      // Compact exact form: eta >= diff, eta >= -diff.
      std::vector<lp::Term> c1 = diff;
      c1.push_back({eta, -1.0});
      model.add_constraint(std::move(c1), lp::Sense::kLessEqual, -constant);
      std::vector<lp::Term> c2;
      for (const lp::Term& t : diff) c2.push_back({t.var, -t.coeff});
      c2.push_back({eta, -1.0});
      model.add_constraint(std::move(c2), lp::Sense::kLessEqual, constant);
    } else {
      // Paper's eqs. (8)-(13) with indicator binaries z^p, z^n.
      const int zp = model.add_binary(0.0, "zp" + std::to_string(p));
      const int zn = model.add_binary(0.0, "zn" + std::to_string(p));
      // (8):  diff <= M zp
      {
        std::vector<lp::Term> c = diff;
        c.push_back({zp, -big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual, -constant);
      }
      // (9):  diff - eta <= M (1 - zp)
      {
        std::vector<lp::Term> c = diff;
        c.push_back({eta, -1.0});
        c.push_back({zp, big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual,
                             -constant + big);
      }
      // (10): -diff + eta <= M (1 - zp)
      {
        std::vector<lp::Term> c;
        for (const lp::Term& t : diff) c.push_back({t.var, -t.coeff});
        c.push_back({eta, 1.0});
        c.push_back({zp, big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual,
                             constant + big);
      }
      // (11): -diff <= M zn
      {
        std::vector<lp::Term> c;
        for (const lp::Term& t : diff) c.push_back({t.var, -t.coeff});
        c.push_back({zn, -big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual, constant);
      }
      // (12): -diff - eta <= M (1 - zn)
      {
        std::vector<lp::Term> c;
        for (const lp::Term& t : diff) c.push_back({t.var, -t.coeff});
        c.push_back({eta, -1.0});
        c.push_back({zn, big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual,
                             constant + big);
      }
      // (13): diff + eta <= M (1 - zn)
      {
        std::vector<lp::Term> c = diff;
        c.push_back({eta, 1.0});
        c.push_back({zn, big});
        model.add_constraint(std::move(c), lp::Sense::kLessEqual,
                             -constant + big);
      }
    }
  }

  // Hold bounds (eq. 21): x_i - x_j >= lambda.
  for (const HoldConstraintX& h : inst.hold) {
    std::vector<lp::Term> terms;
    double constant = 0.0;
    x_terms(h.src_buf, +1.0, terms, constant);
    x_terms(h.dst_buf, -1.0, terms, constant);
    model.add_constraint(std::move(terms), lp::Sense::kGreaterEqual,
                         h.lambda - constant);
  }

  const lp::Solution sol = lp::solve(model);
  out.steps = inst.current_steps;
  if (!sol.feasible()) {
    out.feasible = false;
    // Fall back to the current state, with the first entry's center as T.
    out.period = inst.entries.empty() ? 0.0 : inst.entries.front().center;
    out.objective = objective_of(inst, out.period, out.steps);
    return out;
  }
  out.period = sol.values[static_cast<std::size_t>(var_t)];
  for (int b : involved_set) {
    const auto bi = static_cast<std::size_t>(b);
    out.steps[bi] = static_cast<int>(
        std::lround(sol.values[static_cast<std::size_t>(step_var[bi])]));
  }
  out.objective = objective_of(inst, out.period, out.steps);
  out.feasible = hold_ok(inst, out.steps);
  return out;
}

std::vector<double> middle_out_weights(std::span<const double> centers,
                                       double k0, double kd) {
  std::vector<double> weights;
  std::vector<std::size_t> order;
  middle_out_weights(centers, k0, kd, weights, order);
  return weights;
}

void middle_out_weights(std::span<const double> centers, double k0, double kd,
                        std::vector<double>& weights,
                        std::vector<std::size_t>& order) {
  const std::size_t n = centers.size();
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return centers[a] < centers[b] || (centers[a] == centers[b] && a < b);
  });
  weights.assign(n, kd);
  const double mid = (static_cast<double>(n) - 1.0) / 2.0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    const double dist = std::abs(static_cast<double>(rank) - mid);
    weights[order[rank]] = std::max(k0 - kd * dist, kd);
  }
}

AlignmentResult solve_alignment(const AlignmentInstance& instance) {
  AlignmentWorkspace workspace;
  solve_alignment(instance, workspace);
  return std::move(workspace.result);
}

const AlignmentResult& solve_alignment(const AlignmentInstance& instance,
                                       AlignmentWorkspace& workspace) {
  if (!nothing_to_align(instance, workspace.result)) {
    solve_coordinate_descent(instance, workspace);
  }
  return workspace.result;
}

}  // namespace effitest::core
