#include "lp/model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace effitest::lp {
namespace {

TEST(Model, AddVariableReturnsSequentialIndices) {
  Model m;
  EXPECT_EQ(m.add_continuous(0.0, 1.0), 0);
  EXPECT_EQ(m.add_integer(0.0, 5.0), 1);
  EXPECT_EQ(m.add_binary(), 2);
  EXPECT_EQ(m.num_variables(), 3u);
}

TEST(Model, VariableBoundsValidated) {
  Model m;
  EXPECT_THROW(m.add_continuous(2.0, 1.0), ModelError);
  EXPECT_THROW(m.add_continuous(0.0, std::nan("")), ModelError);
}

TEST(Model, BinaryVariableShape) {
  Model m;
  const int b = m.add_binary(3.0, "flag");
  const Variable& v = m.variable(b);
  EXPECT_DOUBLE_EQ(v.lower, 0.0);
  EXPECT_DOUBLE_EQ(v.upper, 1.0);
  EXPECT_EQ(v.type, VarType::kInteger);
  EXPECT_DOUBLE_EQ(v.objective, 3.0);
  EXPECT_EQ(v.name, "flag");
}

TEST(Model, ConstraintMergesDuplicateTerms) {
  Model m;
  const int x = m.add_continuous(0.0, 10.0);
  m.add_constraint({{x, 1.0}, {x, 2.0}}, Sense::kLessEqual, 6.0);
  const Constraint& c = m.constraints()[0];
  ASSERT_EQ(c.terms.size(), 1u);
  EXPECT_DOUBLE_EQ(c.terms[0].coeff, 3.0);
}

TEST(Model, ConstraintDropsZeroCoefficients) {
  Model m;
  const int x = m.add_continuous(0.0, 10.0);
  const int y = m.add_continuous(0.0, 10.0);
  m.add_constraint({{x, 1.0}, {x, -1.0}, {y, 2.0}}, Sense::kEqual, 4.0);
  EXPECT_EQ(m.constraints()[0].terms.size(), 1u);
  EXPECT_EQ(m.constraints()[0].terms[0].var, y);
}

TEST(Model, ConstraintRejectsBadVariable) {
  Model m;
  EXPECT_THROW(m.add_constraint({{5, 1.0}}, Sense::kLessEqual, 0.0), ModelError);
}

TEST(Model, SetBounds) {
  Model m;
  const int x = m.add_continuous(0.0, 1.0);
  m.set_bounds(x, -2.0, 2.0);
  EXPECT_DOUBLE_EQ(m.variable(x).lower, -2.0);
  EXPECT_DOUBLE_EQ(m.variable(x).upper, 2.0);
  EXPECT_THROW(m.set_bounds(x, 3.0, 1.0), ModelError);
}

TEST(Model, HasIntegerVariables) {
  Model m;
  m.add_continuous(0.0, 1.0);
  EXPECT_FALSE(m.has_integer_variables());
  m.add_integer(0.0, 4.0);
  EXPECT_TRUE(m.has_integer_variables());
}

TEST(Model, ObjectiveValue) {
  Model m;
  m.add_continuous(0.0, 10.0, 2.0);
  m.add_continuous(0.0, 10.0, -1.0);
  const std::vector<double> x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(m.objective_value(x), 2.0);
}

TEST(Model, MaxViolationChecksEverything) {
  Model m;
  const int x = m.add_continuous(0.0, 1.0);
  m.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 0.5);
  const std::vector<double> feasible{0.7};
  EXPECT_DOUBLE_EQ(m.max_violation(feasible), 0.0);
  const std::vector<double> below{0.2};
  EXPECT_NEAR(m.max_violation(below), 0.3, 1e-12);
  const std::vector<double> outside{1.5};
  EXPECT_NEAR(m.max_violation(outside), 0.5, 1e-12);
}

TEST(Model, EqualityViolationIsAbsolute) {
  Model m;
  const int x = m.add_continuous(-10.0, 10.0);
  m.add_constraint({{x, 1.0}}, Sense::kEqual, 2.0);
  EXPECT_NEAR(m.max_violation(std::vector<double>{5.0}), 3.0, 1e-12);
  EXPECT_NEAR(m.max_violation(std::vector<double>{-1.0}), 3.0, 1e-12);
}

}  // namespace
}  // namespace effitest::lp
