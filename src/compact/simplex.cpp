#include "compact/simplex.hpp"

#include "support/error.hpp"

namespace rsg::compact {

namespace detail {

void check_dimensions(const LpProblem& problem) {
  if (static_cast<int>(problem.objective.size()) != problem.num_vars) {
    throw Error("simplex: objective size does not match variable count");
  }
  if (!problem.upper.empty() &&
      static_cast<int>(problem.upper.size()) != problem.num_vars) {
    throw Error("simplex: upper bound vector size does not match variable count");
  }
}

bool has_finite_upper(const LpProblem& problem) {
  for (const double u : problem.upper) {
    if (u != kLpUnbounded) return true;
  }
  return false;
}

LpProblem upper_bounds_as_rows(const LpProblem& problem) {
  if (static_cast<int>(problem.upper.size()) != problem.num_vars) {
    throw Error("simplex: upper bound vector size does not match variable count");
  }
  LpProblem boxed;
  boxed.num_vars = problem.num_vars;
  boxed.objective = problem.objective;
  boxed.constraints = problem.constraints;
  for (int j = 0; j < problem.num_vars; ++j) {
    const double u = problem.upper[static_cast<std::size_t>(j)];
    if (u == kLpUnbounded) continue;
    LpConstraint row;
    row.terms.emplace_back(j, 1.0);
    row.rhs = u;
    boxed.constraints.push_back(std::move(row));
  }
  return boxed;
}

}  // namespace detail

LpSolution solve_lp(const LpProblem& problem, LpWarmStart* warm) {
  LpSolution solution;
  detail::solve_lp_dual_into(problem, solution, warm);
  return solution;
}

}  // namespace rsg::compact
