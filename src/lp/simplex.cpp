#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace effitest::lp {

namespace {

// A structural tableau column and how it maps back onto a model variable:
// x[model_var] = shift + mult * y[column] (+ the partner column for free
// variables, which are split into y+ - y-).
struct ColumnMap {
  int model_var = -1;
  double mult = 1.0;
};

struct Row {
  std::vector<double> coeffs;  // over structural columns
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
};

class Tableau {
 public:
  Tableau(std::vector<Row> rows, std::size_t n_structural,
          const SimplexOptions& options)
      : options_(options), n_structural_(n_structural) {
    // Normalize rhs >= 0.
    for (Row& r : rows) {
      if (r.rhs < 0.0) {
        for (double& c : r.coeffs) c = -c;
        r.rhs = -r.rhs;
        if (r.sense == Sense::kLessEqual) {
          r.sense = Sense::kGreaterEqual;
        } else if (r.sense == Sense::kGreaterEqual) {
          r.sense = Sense::kLessEqual;
        }
      }
    }
    const std::size_t m = rows.size();
    // Column layout: [structural | slacks/surplus | artificials].
    std::size_t n_slack = 0;
    for (const Row& r : rows) {
      if (r.sense != Sense::kEqual) ++n_slack;
    }
    std::size_t n_art = 0;
    for (const Row& r : rows) {
      if (r.sense != Sense::kLessEqual) ++n_art;
    }
    n_total_ = n_structural_ + n_slack + n_art;
    first_artificial_ = n_structural_ + n_slack;

    t_.assign(m, std::vector<double>(n_total_ + 1, 0.0));
    basis_.assign(m, -1);
    banned_.assign(n_total_, false);

    std::size_t slack_at = n_structural_;
    std::size_t art_at = first_artificial_;
    for (std::size_t i = 0; i < m; ++i) {
      auto& row = t_[i];
      for (std::size_t j = 0; j < n_structural_; ++j) row[j] = rows[i].coeffs[j];
      row[n_total_] = rows[i].rhs;
      switch (rows[i].sense) {
        case Sense::kLessEqual:
          row[slack_at] = 1.0;
          basis_[i] = static_cast<int>(slack_at);
          ++slack_at;
          break;
        case Sense::kGreaterEqual:
          row[slack_at] = -1.0;
          ++slack_at;
          row[art_at] = 1.0;
          basis_[i] = static_cast<int>(art_at);
          ++art_at;
          break;
        case Sense::kEqual:
          row[art_at] = 1.0;
          basis_[i] = static_cast<int>(art_at);
          ++art_at;
          break;
      }
    }
    has_artificials_ = n_art > 0;
  }

  [[nodiscard]] bool has_artificials() const { return has_artificials_; }
  [[nodiscard]] std::size_t num_rows() const { return t_.size(); }
  [[nodiscard]] std::size_t num_total_cols() const { return n_total_; }
  [[nodiscard]] int iterations() const { return iterations_; }

  /// Run simplex with the given objective over all tableau columns.
  /// Returns kOptimal / kUnbounded / kIterationLimit.
  SolveStatus minimize(const std::vector<double>& cost) {
    compute_objective_row(cost);
    bool bland = false;
    int stall = 0;
    const int stall_limit =
        4 * static_cast<int>(num_rows() + n_total_) + 64;
    double last_obj = obj_val_;
    while (iterations_ < options_.max_iterations) {
      const int enter = choose_entering(bland);
      if (enter < 0) return SolveStatus::kOptimal;
      const int leave = ratio_test(enter);
      if (leave < 0) return SolveStatus::kUnbounded;
      pivot(static_cast<std::size_t>(leave), static_cast<std::size_t>(enter));
      ++iterations_;
      if (obj_val_ < last_obj - options_.tol) {
        last_obj = obj_val_;
        stall = 0;
      } else if (++stall > stall_limit) {
        bland = true;  // anti-cycling fallback
      }
    }
    return SolveStatus::kIterationLimit;
  }

  [[nodiscard]] double objective_value() const { return obj_val_; }

  /// Value of structural column j in the current basic solution.
  [[nodiscard]] std::vector<double> structural_values() const {
    std::vector<double> y(n_structural_, 0.0);
    for (std::size_t i = 0; i < t_.size(); ++i) {
      const int b = basis_[i];
      if (b >= 0 && static_cast<std::size_t>(b) < n_structural_) {
        y[static_cast<std::size_t>(b)] = t_[i][n_total_];
      }
    }
    return y;
  }

  /// After phase 1: drive artificials out of the basis, drop redundant rows,
  /// and ban artificial columns from ever entering again.
  void retire_artificials() {
    for (std::size_t i = 0; i < t_.size();) {
      const int b = basis_[i];
      if (b < 0 || static_cast<std::size_t>(b) < first_artificial_) {
        ++i;
        continue;
      }
      // Basic artificial (value ~0 after a feasible phase 1): pivot it out on
      // any eligible non-artificial column.
      int pivot_col = -1;
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (std::abs(t_[i][j]) > options_.tol) {
          pivot_col = static_cast<int>(j);
          break;
        }
      }
      if (pivot_col >= 0) {
        pivot(i, static_cast<std::size_t>(pivot_col));
        ++i;
      } else {
        // Redundant row: remove it.
        t_.erase(t_.begin() + static_cast<std::ptrdiff_t>(i));
        basis_.erase(basis_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    for (std::size_t j = first_artificial_; j < n_total_; ++j) {
      banned_[j] = true;
    }
  }

  [[nodiscard]] std::vector<double> phase1_cost() const {
    std::vector<double> c(n_total_, 0.0);
    for (std::size_t j = first_artificial_; j < n_total_; ++j) c[j] = 1.0;
    return c;
  }

 private:
  void compute_objective_row(const std::vector<double>& cost) {
    obj_row_ = cost;
    obj_val_ = 0.0;
    for (std::size_t i = 0; i < t_.size(); ++i) {
      const double cb = cost[static_cast<std::size_t>(basis_[i])];
      if (cb == 0.0) continue;
      const auto& row = t_[i];
      for (std::size_t j = 0; j < n_total_; ++j) obj_row_[j] -= cb * row[j];
      obj_val_ += cb * row[n_total_];
    }
  }

  [[nodiscard]] int choose_entering(bool bland) const {
    if (bland) {
      for (std::size_t j = 0; j < n_total_; ++j) {
        if (!banned_[j] && obj_row_[j] < -options_.tol) {
          return static_cast<int>(j);
        }
      }
      return -1;
    }
    int best = -1;
    double best_val = -options_.tol;
    for (std::size_t j = 0; j < n_total_; ++j) {
      if (!banned_[j] && obj_row_[j] < best_val) {
        best_val = obj_row_[j];
        best = static_cast<int>(j);
      }
    }
    return best;
  }

  [[nodiscard]] int ratio_test(int enter) const {
    int leave = -1;
    double best_ratio = 0.0;
    for (std::size_t i = 0; i < t_.size(); ++i) {
      const double a = t_[i][static_cast<std::size_t>(enter)];
      if (a <= options_.tol) continue;
      const double ratio = t_[i][n_total_] / a;
      if (leave < 0 || ratio < best_ratio - options_.tol ||
          (ratio < best_ratio + options_.tol && basis_[i] < basis_[static_cast<std::size_t>(leave)])) {
        best_ratio = ratio;
        leave = static_cast<int>(i);
      }
    }
    return leave;
  }

  void pivot(std::size_t leave, std::size_t enter) {
    auto& prow = t_[leave];
    const double piv = prow[enter];
    for (double& v : prow) v /= piv;
    prow[enter] = 1.0;
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (i == leave) continue;
      auto& row = t_[i];
      const double f = row[enter];
      if (f == 0.0) continue;
      for (std::size_t j = 0; j <= n_total_; ++j) row[j] -= f * prow[j];
      row[enter] = 0.0;
    }
    const double fo = obj_row_[enter];
    if (fo != 0.0) {
      for (std::size_t j = 0; j < n_total_; ++j) obj_row_[j] -= fo * prow[j];
      obj_row_[enter] = 0.0;
      obj_val_ += fo * prow[n_total_];
    }
    basis_[leave] = static_cast<int>(enter);
  }

  SimplexOptions options_;
  std::size_t n_structural_ = 0;
  std::size_t n_total_ = 0;
  std::size_t first_artificial_ = 0;
  bool has_artificials_ = false;
  std::vector<std::vector<double>> t_;
  std::vector<int> basis_;
  std::vector<bool> banned_;
  std::vector<double> obj_row_;
  double obj_val_ = 0.0;
  int iterations_ = 0;
};

}  // namespace

LpSolution solve_lp(const Model& model, const SimplexOptions& options) {
  const auto& vars = model.variables();
  const std::size_t n = vars.size();

  // --- Variable substitution to y >= 0 columns. -----------------------------
  std::vector<ColumnMap> columns;
  std::vector<double> shift(n, 0.0);
  // first column index of each variable; second column (free split) follows.
  std::vector<int> var_col(n, -1);
  std::vector<bool> var_free(n, false);
  struct UbRow {
    std::size_t col;
    double cap;
  };
  std::vector<UbRow> ub_rows;

  for (std::size_t j = 0; j < n; ++j) {
    const Variable& v = vars[j];
    if (std::isfinite(v.lower)) {
      var_col[j] = static_cast<int>(columns.size());
      shift[j] = v.lower;
      columns.push_back({static_cast<int>(j), 1.0});
      if (std::isfinite(v.upper)) {
        if (v.upper - v.lower > 0.0) {
          ub_rows.push_back({columns.size() - 1, v.upper - v.lower});
        } else {
          // Fixed variable: y <= 0 i.e. y == 0.
          ub_rows.push_back({columns.size() - 1, 0.0});
        }
      }
    } else if (std::isfinite(v.upper)) {
      // x = upper - y, y >= 0.
      var_col[j] = static_cast<int>(columns.size());
      shift[j] = v.upper;
      columns.push_back({static_cast<int>(j), -1.0});
    } else {
      // Free variable: x = y+ - y-.
      var_col[j] = static_cast<int>(columns.size());
      var_free[j] = true;
      columns.push_back({static_cast<int>(j), 1.0});
      columns.push_back({static_cast<int>(j), -1.0});
    }
  }
  const std::size_t n_cols = columns.size();

  // --- Rows. ----------------------------------------------------------------
  std::vector<Row> rows;
  rows.reserve(model.num_constraints() + ub_rows.size());
  for (const Constraint& c : model.constraints()) {
    Row r;
    r.coeffs.assign(n_cols, 0.0);
    double rhs = c.rhs;
    for (const Term& t : c.terms) {
      const auto j = static_cast<std::size_t>(t.var);
      rhs -= t.coeff * shift[j];
      const auto col = static_cast<std::size_t>(var_col[j]);
      r.coeffs[col] += t.coeff * columns[col].mult;
      if (var_free[j]) {
        r.coeffs[col + 1] += t.coeff * columns[col + 1].mult;
      }
    }
    r.sense = c.sense;
    r.rhs = rhs;
    rows.push_back(std::move(r));
  }
  for (const UbRow& u : ub_rows) {
    Row r;
    r.coeffs.assign(n_cols, 0.0);
    r.coeffs[u.col] = 1.0;
    r.sense = Sense::kLessEqual;
    r.rhs = u.cap;
    rows.push_back(std::move(r));
  }

  // --- Costs over structural columns. ---------------------------------------
  Tableau tab(std::move(rows), n_cols, options);
  std::vector<double> cost(tab.num_total_cols(), 0.0);
  for (std::size_t col = 0; col < n_cols; ++col) {
    const ColumnMap& cm = columns[col];
    cost[col] = vars[static_cast<std::size_t>(cm.model_var)].objective * cm.mult;
  }

  LpSolution out;

  if (tab.has_artificials()) {
    const SolveStatus ph1 = tab.minimize(tab.phase1_cost());
    out.iterations = tab.iterations();
    if (ph1 == SolveStatus::kIterationLimit) {
      out.status = SolveStatus::kIterationLimit;
      return out;
    }
    // Phase 1 cannot be unbounded (objective >= 0).
    if (tab.objective_value() > options.feas_tol) {
      out.status = SolveStatus::kInfeasible;
      return out;
    }
    tab.retire_artificials();
  }

  const SolveStatus ph2 = tab.minimize(cost);
  out.iterations = tab.iterations();
  if (ph2 != SolveStatus::kOptimal) {
    out.status = ph2;
    return out;
  }

  // --- Map back to model variables. ------------------------------------------
  const std::vector<double> y = tab.structural_values();
  out.values.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const auto col = static_cast<std::size_t>(var_col[j]);
    double x = shift[j] + columns[col].mult * y[col];
    if (var_free[j]) x += columns[col + 1].mult * y[col + 1];
    out.values[j] = x;
  }
  out.objective = model.objective_value(out.values);
  out.status = SolveStatus::kOptimal;
  return out;
}

}  // namespace effitest::lp
