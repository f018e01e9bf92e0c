#include "lp/model.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace effitest::lp {

int Model::add_variable(double lower, double upper, double objective,
                        VarType type, std::string name) {
  if (lower > upper) {
    throw ModelError("variable '" + name + "': lower bound exceeds upper");
  }
  if (std::isnan(lower) || std::isnan(upper) || std::isnan(objective)) {
    throw ModelError("variable '" + name + "': NaN in definition");
  }
  variables_.push_back({lower, upper, objective, type, std::move(name)});
  return static_cast<int>(variables_.size()) - 1;
}

int Model::add_continuous(double lower, double upper, double objective,
                          std::string name) {
  return add_variable(lower, upper, objective, VarType::kContinuous,
                      std::move(name));
}

int Model::add_integer(double lower, double upper, double objective,
                       std::string name) {
  return add_variable(lower, upper, objective, VarType::kInteger,
                      std::move(name));
}

int Model::add_binary(double objective, std::string name) {
  return add_variable(0.0, 1.0, objective, VarType::kInteger, std::move(name));
}

int Model::add_constraint(std::vector<Term> terms, Sense sense, double rhs,
                          std::string name) {
  if (std::isnan(rhs)) throw ModelError("constraint '" + name + "': NaN rhs");
  // Accumulate duplicate variable references so downstream code can assume
  // each variable appears at most once per row.
  std::map<int, double> acc;
  for (const Term& t : terms) {
    check_var(t.var);
    if (std::isnan(t.coeff)) {
      throw ModelError("constraint '" + name + "': NaN coefficient");
    }
    acc[t.var] += t.coeff;
  }
  std::vector<Term> merged;
  merged.reserve(acc.size());
  for (const auto& [var, coeff] : acc) {
    if (coeff != 0.0) merged.push_back({var, coeff});
  }
  constraints_.push_back({std::move(merged), sense, rhs, std::move(name)});
  return static_cast<int>(constraints_.size()) - 1;
}

void Model::set_bounds(int var, double lower, double upper) {
  check_var(var);
  if (lower > upper) throw ModelError("set_bounds: lower exceeds upper");
  auto& v = variables_[static_cast<std::size_t>(var)];
  v.lower = lower;
  v.upper = upper;
}

const Variable& Model::variable(int idx) const {
  check_var(idx);
  return variables_[static_cast<std::size_t>(idx)];
}

bool Model::has_integer_variables() const {
  return std::any_of(variables_.begin(), variables_.end(), [](const Variable& v) {
    return v.type == VarType::kInteger;
  });
}

double Model::objective_value(std::span<const double> x) const {
  double acc = 0.0;
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    acc += variables_[j].objective * x[j];
  }
  return acc;
}

double Model::max_violation(std::span<const double> x) const {
  double worst = 0.0;
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    worst = std::max(worst, variables_[j].lower - x[j]);
    worst = std::max(worst, x[j] - variables_[j].upper);
  }
  for (const Constraint& c : constraints_) {
    double lhs = 0.0;
    for (const Term& t : c.terms) lhs += t.coeff * x[static_cast<std::size_t>(t.var)];
    switch (c.sense) {
      case Sense::kLessEqual:
        worst = std::max(worst, lhs - c.rhs);
        break;
      case Sense::kGreaterEqual:
        worst = std::max(worst, c.rhs - lhs);
        break;
      case Sense::kEqual:
        worst = std::max(worst, std::abs(lhs - c.rhs));
        break;
    }
  }
  return worst;
}

void Model::check_var(int idx) const {
  if (idx < 0 || static_cast<std::size_t>(idx) >= variables_.size()) {
    throw ModelError("variable index out of range");
  }
}

}  // namespace effitest::lp
