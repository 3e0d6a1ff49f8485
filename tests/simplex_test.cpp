// Tests for the simplex solvers of leaf-cell compaction (§6.3). Every case
// runs against solve_lp (the dual simplex), its primal fallback on its own,
// and the dense-tableau oracle, through the value-parameterized fixture, so
// the solvers cannot drift apart behaviourally.
#include "compact/simplex.hpp"

#include <gtest/gtest.h>

#include <string>

#include "oracle/dense_tableau.hpp"
#include "support/error.hpp"

namespace rsg::compact {
namespace {

struct Engine {
  const char* name;
  LpSolution (*solve)(const LpProblem&);
};

LpSolution solve_dual(const LpProblem& p) { return solve_lp(p); }

class SimplexMethod : public ::testing::TestWithParam<Engine> {
 protected:
  LpSolution solve(const LpProblem& p) const { return GetParam().solve(p); }
};

INSTANTIATE_TEST_SUITE_P(Engines, SimplexMethod,
                         ::testing::Values(Engine{"Dense", &oracle::solve_dense_tableau},
                                           Engine{"Sparse", &detail::solve_lp_primal},
                                           Engine{"SparseDual", &solve_dual}),
                         [](const ::testing::TestParamInfo<Engine>& info) {
                           return std::string(info.param.name);
                         });

TEST_P(SimplexMethod, TrivialMinimumAtOrigin) {
  // min x + y, x,y >= 0, no constraints: origin.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {1.0, 1.0};
  const LpSolution s = solve(p);
  ASSERT_TRUE(s.feasible);
  ASSERT_TRUE(s.bounded);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
}

TEST_P(SimplexMethod, ClassicTwoVariableMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> x=2, y=6, z=36.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {-3.0, -5.0};  // minimize the negation
  p.constraints = {
      {{{0, 1.0}}, 4.0},
      {{{1, 2.0}}, 12.0},
      {{{0, 3.0}, {1, 2.0}}, 18.0},
  };
  const LpSolution s = solve(p);
  ASSERT_TRUE(s.feasible);
  ASSERT_TRUE(s.bounded);
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
  EXPECT_NEAR(s.x[1], 6.0, 1e-7);
  EXPECT_NEAR(s.objective, -36.0, 1e-7);
}

TEST_P(SimplexMethod, GreaterEqualConstraintsViaNegativeRhs) {
  // min x s.t. x >= 7  (written -x <= -7): phase 1 must find feasibility.
  LpProblem p;
  p.num_vars = 1;
  p.objective = {1.0};
  p.constraints = {{{{0, -1.0}}, -7.0}};
  const LpSolution s = solve(p);
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.x[0], 7.0, 1e-7);
}

TEST_P(SimplexMethod, DifferenceConstraintChain) {
  // min x3 s.t. x1 >= 2, x2 - x1 >= 3, x3 - x2 >= 4  -> x3 = 9.
  LpProblem p;
  p.num_vars = 3;
  p.objective = {0.0, 0.0, 1.0};
  p.constraints = {
      {{{0, -1.0}}, -2.0},
      {{{0, 1.0}, {1, -1.0}}, -3.0},
      {{{1, 1.0}, {2, -1.0}}, -4.0},
  };
  const LpSolution s = solve(p);
  ASSERT_TRUE(s.feasible);
  EXPECT_NEAR(s.x[2], 9.0, 1e-7);
}

TEST_P(SimplexMethod, InfeasibleDetected) {
  // x <= 1 and x >= 3.
  LpProblem p;
  p.num_vars = 1;
  p.objective = {1.0};
  p.constraints = {
      {{{0, 1.0}}, 1.0},
      {{{0, -1.0}}, -3.0},
  };
  const LpSolution s = solve(p);
  EXPECT_FALSE(s.feasible);
}

TEST_P(SimplexMethod, UnboundedDetected) {
  // min -x, x >= 0, unconstrained above.
  LpProblem p;
  p.num_vars = 1;
  p.objective = {-1.0};
  const LpSolution s = solve(p);
  ASSERT_TRUE(s.feasible);
  EXPECT_FALSE(s.bounded);
}

TEST_P(SimplexMethod, PitchStyleSystem) {
  // The Figure 6.3 shape: edge variables x1..x4 of one cell plus pitch λ.
  // Intra: x2 - x1 >= 2, x3 - x2 >= 3, x4 - x3 >= 2.
  // Inter (folded): x1 - x4 + λ >= 4  and  x3 - x4 + λ >= 9.
  // min λ: λ = max(4 + x4 - x1, 9 + x4 - x3) with x deltas at their minima:
  // x4 - x1 = 7, x4 - x3 = 2  ->  λ = max(11, 11) = 11.
  LpProblem p;
  p.num_vars = 5;  // x1..x4, λ
  p.objective = {0.0, 0.0, 0.0, 0.0, 1.0};
  auto ge = [&](std::vector<std::pair<int, double>> terms, double rhs) {
    for (auto& [v, c] : terms) c = -c;
    p.constraints.push_back({std::move(terms), -rhs});
  };
  ge({{1, 1.0}, {0, -1.0}}, 2.0);
  ge({{2, 1.0}, {1, -1.0}}, 3.0);
  ge({{3, 1.0}, {2, -1.0}}, 2.0);
  ge({{0, 1.0}, {3, -1.0}, {4, 1.0}}, 4.0);
  ge({{2, 1.0}, {3, -1.0}, {4, 1.0}}, 9.0);
  const LpSolution s = solve(p);
  ASSERT_TRUE(s.feasible);
  ASSERT_TRUE(s.bounded);
  EXPECT_NEAR(s.x[4], 11.0, 1e-7);
}

TEST_P(SimplexMethod, ObjectiveSizeValidated) {
  LpProblem p;
  p.num_vars = 2;
  p.objective = {1.0};
  EXPECT_THROW(solve(p), Error);
}

TEST_P(SimplexMethod, VariableIndexValidated) {
  LpProblem p;
  p.num_vars = 1;
  p.objective = {1.0};
  p.constraints = {{{{3, 1.0}}, 1.0}};
  EXPECT_THROW(solve(p), Error);
}

TEST_P(SimplexMethod, ArtificialsCannotReenterInPhase2) {
  // Regression: phase 2 used to block artificial re-entry with a 1e12
  // big-M cost, which a real variable with a larger objective magnitude
  // swamps. Here y's -2e12 coefficient made the expelled artificial price
  // negative again; it re-entered the basis and the "solution" was x = 0,
  // violating x >= 5. With artificial columns barred from phase 2 instead,
  // the true optimum x = 5, y = 5 comes back.
  LpProblem p;
  p.num_vars = 2;
  p.objective = {0.0, -2e12};
  p.constraints = {
      {{{0, -1.0}}, -5.0},  // x >= 5: phase 1 introduces an artificial
      {{{0, 1.0}, {1, 1.0}}, 10.0},
  };
  const LpSolution s = solve(p);
  ASSERT_TRUE(s.feasible);
  ASSERT_TRUE(s.bounded);
  EXPECT_NEAR(s.x[0], 5.0, 1e-6);
  EXPECT_NEAR(s.x[1], 5.0, 1e-6);
  EXPECT_NEAR(s.objective, -1e13, 1.0);
}

TEST_P(SimplexMethod, DegenerateTiesDoNotCycle) {
  // Beale's classic cycling example: Dantzig pricing loops forever on it
  // without a guard, so this also exercises the Bland fallback after a
  // degenerate-pivot streak.
  LpProblem p;
  p.num_vars = 3;
  p.objective = {-0.75, 150.0, -0.02};
  p.constraints = {
      {{{0, 0.25}, {1, -60.0}, {2, -0.04}}, 0.0},
      {{{0, 0.5}, {1, -90.0}, {2, -0.02}}, 0.0},
      {{{2, 1.0}}, 1.0},
  };
  const LpSolution s = solve(p);
  ASSERT_TRUE(s.feasible);
  ASSERT_TRUE(s.bounded);
  EXPECT_NEAR(s.objective, -0.05, 1e-6);
  // The degenerate plateau is a primal phenomenon: the dual engine walks a
  // different vertex sequence (and may fall back), so only the primal
  // engines are pinned to visit it.
  if (GetParam().solve != &solve_dual) {
    EXPECT_GT(s.stats.degenerate_pivots, 0);
  }
}

}  // namespace
}  // namespace rsg::compact
