#pragma once
// Linear / mixed-integer linear program model builder.
//
// The paper solves its alignment problem (eqs. 7-14), buffer-configuration
// problem (eqs. 15-18) and hold-bound problem (eqs. 19-20) with Gurobi.
// Gurobi is proprietary, so this module provides the in-house substitute:
// a model container consumed by the bounded two-phase simplex in simplex.hpp
// and the branch & bound driver in solver.hpp.

#include <limits>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace effitest::lp {

/// +infinity convenience constant for unbounded variable sides.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { kLessEqual, kEqual, kGreaterEqual };

enum class VarType { kContinuous, kInteger };

/// One linear term `coeff * x[var]`.
struct Term {
  int var = -1;
  double coeff = 0.0;
};

struct Variable {
  double lower = 0.0;
  double upper = kInf;
  double objective = 0.0;
  VarType type = VarType::kContinuous;
  std::string name;
};

struct Constraint {
  std::vector<Term> terms;
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
  std::string name;
};

class ModelError : public std::runtime_error {
 public:
  explicit ModelError(const std::string& what) : std::runtime_error(what) {}
};

/// A minimization MILP:  min c^T x  s.t.  A x {<=,=,>=} b,  l <= x <= u,
/// x_j integer for marked j.  (Use negated costs to maximize.)
class Model {
 public:
  /// Add a variable; returns its index.
  int add_variable(double lower, double upper, double objective,
                   VarType type = VarType::kContinuous, std::string name = "");

  int add_continuous(double lower, double upper, double objective = 0.0,
                     std::string name = "");
  int add_integer(double lower, double upper, double objective = 0.0,
                  std::string name = "");
  /// Binary {0,1} variable.
  int add_binary(double objective = 0.0, std::string name = "");

  /// Add constraint sum(terms) sense rhs; returns constraint index.
  /// Terms referencing the same variable are accumulated.
  int add_constraint(std::vector<Term> terms, Sense sense, double rhs,
                     std::string name = "");

  void set_bounds(int var, double lower, double upper);

  [[nodiscard]] std::size_t num_variables() const { return variables_.size(); }
  [[nodiscard]] std::size_t num_constraints() const {
    return constraints_.size();
  }
  [[nodiscard]] const Variable& variable(int idx) const;
  [[nodiscard]] const std::vector<Variable>& variables() const {
    return variables_;
  }
  [[nodiscard]] const std::vector<Constraint>& constraints() const {
    return constraints_;
  }

  [[nodiscard]] bool has_integer_variables() const;

  /// Objective value of an assignment (no feasibility check).
  [[nodiscard]] double objective_value(std::span<const double> x) const;

  /// Largest constraint violation of an assignment (0 when feasible).
  /// Variable bounds are included.
  [[nodiscard]] double max_violation(std::span<const double> x) const;

 private:
  void check_var(int idx) const;

  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
};

}  // namespace effitest::lp
