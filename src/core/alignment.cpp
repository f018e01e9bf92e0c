#include "core/alignment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>

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

/// The workspace's static point set, sorted, with prefix sums: evaluates
/// sum(w |T - m|) and proposes weighted-median candidates in O(log n).
class StaticPoints {
 public:
  explicit StaticPoints(AlignmentWorkspace& ws)
      : pts_(ws.points), prefix_w_(ws.prefix_w), prefix_wm_(ws.prefix_wm) {}

  /// Sort the (center, weight) points gathered in the workspace and
  /// rebuild the prefix sums.
  void build() {
    std::sort(pts_.begin(), pts_.end());
    prefix_w_.resize(pts_.size() + 1);
    prefix_wm_.resize(pts_.size() + 1);
    prefix_w_[0] = 0.0;
    prefix_wm_[0] = 0.0;
    for (std::size_t i = 0; i < pts_.size(); ++i) {
      prefix_w_[i + 1] = prefix_w_[i] + pts_[i].second;
      prefix_wm_[i + 1] = prefix_wm_[i] + pts_[i].second * pts_[i].first;
    }
  }

  [[nodiscard]] double total_weight() const {
    return prefix_w_.empty() ? 0.0 : prefix_w_.back();
  }

  /// sum over static points of w * |T - m|.
  [[nodiscard]] double objective(double t) const {
    const std::size_t k = static_cast<std::size_t>(
        std::upper_bound(pts_.begin(), pts_.end(), t,
                         [](double v, const std::pair<double, double>& p) {
                           return v < p.first;
                         }) -
        pts_.begin());
    const double left = t * prefix_w_[k] - prefix_wm_[k];
    const double right = (prefix_wm_.back() - prefix_wm_[k]) -
                         t * (prefix_w_.back() - prefix_w_[k]);
    return left + right;
  }

  /// Static point whose cumulative weight first reaches `target`.
  [[nodiscard]] double point_at_mass(double target) const {
    if (pts_.empty()) return 0.0;
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(prefix_w_.begin() + 1, prefix_w_.end(), target) -
        (prefix_w_.begin() + 1));
    return pts_[std::min(k, pts_.size() - 1)].first;
  }

  [[nodiscard]] bool empty() const { return pts_.empty(); }

 private:
  std::vector<std::pair<double, double>>& pts_;
  std::vector<double>& prefix_w_;
  std::vector<double>& prefix_wm_;
};

/// The L1 optimum over a point multiset (static via prefix sums, dynamic
/// explicit) sits on one of the points. Candidates are the dynamic points
/// plus the static mass-crossings for every possible split of the dynamic
/// weight. Those crossings and their static objective depend only on the
/// static set and the dynamic weights, so hoist_static() computes them once
/// per static set and best_period() reuses them for every dynamic position.
void hoist_static(const StaticPoints& stat,
                  std::span<const std::pair<double, double>> dyn,
                  AlignmentWorkspace& ws) {
  double dyn_w = 0.0;
  for (const auto& [m, w] : dyn) dyn_w += w;
  const double half = 0.5 * (stat.total_weight() + dyn_w);
  ws.static_t.clear();
  ws.static_obj.clear();
  if (stat.empty()) return;
  double left_dyn = 0.0;
  ws.static_t.push_back(stat.point_at_mass(half));
  for (const auto& [m, w] : dyn) {
    left_dyn += w;
    ws.static_t.push_back(stat.point_at_mass(half - left_dyn));
  }
  for (double t : ws.static_t) ws.static_obj.push_back(stat.objective(t));
}

/// Best (T, objective) over the dynamic points (in order), then the hoisted
/// static candidates; the first strict minimum wins.
std::pair<double, double> best_period(
    const StaticPoints& stat, std::span<const std::pair<double, double>> dyn,
    const AlignmentWorkspace& ws) {
  double best_t = !dyn.empty()             ? dyn.front().first
                  : !ws.static_t.empty() ? ws.static_t.front()
                                         : 0.0;
  double best_obj = std::numeric_limits<double>::infinity();
  const auto consider = [&](double t, double obj) {
    for (const auto& [m, w] : dyn) obj += w * std::abs(t - m);
    if (obj < best_obj) {
      best_obj = obj;
      best_t = t;
    }
  };
  for (const auto& [t, w] : dyn) consider(t, stat.objective(t));
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

  // TunableBuffer::value(k) is r + step_size() * k; the step size (a
  // division) is computed once per buffer, the rest exactly as value() does.
  ws.step_size.clear();
  for (const TunableBuffer& buf : problem.buffers()) {
    ws.step_size.push_back(buf.step_size());
  }
  const auto x = [&](std::span<const int> steps, int buf) {
    if (buf < 0) return 0.0;
    const auto bi = static_cast<std::size_t>(buf);
    return problem.buffers()[bi].r + ws.step_size[bi] * steps[bi];
  };
  const auto hold_ok_for = [&](std::span<const std::size_t> idx,
                               std::span<const int> steps) {
    for (std::size_t h : idx) {
      const HoldConstraintX& hc = inst.hold[h];
      const double skew = x(steps, hc.src_buf) - x(steps, hc.dst_buf);
      if (skew < hc.lambda - 1e-9) return false;
    }
    return true;
  };

  const auto shifted = [&](const AlignmentEntry& e, std::span<const int> steps) {
    return e.center + x(steps, e.src_buf) - x(steps, e.dst_buf);
  };

  StaticPoints stat(ws);
  {
    // Initial (T, objective) with everything static.
    ws.points.clear();
    for (const AlignmentEntry& e : inst.entries) {
      ws.points.emplace_back(shifted(e, out.steps), e.weight);
    }
    stat.build();
    hoist_static(stat, {}, ws);
    const auto [t, obj] = best_period(stat, {}, ws);
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
      const auto bi = static_cast<std::size_t>(involved[v]);
      const TunableBuffer& buf = problem.buffers()[bi];
      const std::span<const std::size_t> dyn_idx =
          std::span<const std::size_t>(ws.dyn_entries)
              .subspan(ws.dyn_begin[v], ws.dyn_begin[v + 1] - ws.dyn_begin[v]);
      const std::span<const std::size_t> hold_idx =
          std::span<const std::size_t>(ws.hold_entries)
              .subspan(ws.hold_begin[v],
                       ws.hold_begin[v + 1] - ws.hold_begin[v]);

      // Static part: every entry not touching b, at the current steps. It
      // is built on the first hold-feasible step, with its candidates.
      bool static_ready = false;
      const auto prepare_static = [&] {
        ws.points.clear();
        std::size_t next_dyn = 0;
        for (std::size_t i = 0; i < inst.entries.size(); ++i) {
          if (next_dyn < dyn_idx.size() && dyn_idx[next_dyn] == i) {
            ++next_dyn;
            continue;
          }
          ws.points.emplace_back(shifted(inst.entries[i], out.steps),
                                 inst.entries[i].weight);
        }
        stat.build();
        hoist_static(stat, ws.dyn, ws);
        static_ready = true;
      };

      // Dynamic part: the entries touching b. Their weights are fixed;
      // their shifted centers move with b's step.
      ws.dyn.clear();
      for (std::size_t i : dyn_idx) {
        ws.dyn.emplace_back(0.0, inst.entries[i].weight);
      }
      const int saved = out.steps[bi];
      int best_step = saved;
      double best_t = out.period;
      for (int k = 0; k < buf.steps; ++k) {
        if (k == saved) continue;
        out.steps[bi] = k;
        if (!hold_ok_for(hold_idx, out.steps)) continue;
        if (!static_ready) prepare_static();
        for (std::size_t d = 0; d < dyn_idx.size(); ++d) {
          ws.dyn[d].first = shifted(inst.entries[dyn_idx[d]], out.steps);
        }
        const auto [t, obj] = best_period(stat, ws.dyn, ws);
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
