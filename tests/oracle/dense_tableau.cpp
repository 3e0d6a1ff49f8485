#include "oracle/dense_tableau.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "support/error.hpp"

namespace rsg::compact::oracle {

namespace {

constexpr double kEps = 1e-9;

// Dense tableau: rows = constraints, columns = structural + slack +
// artificial variables, plus the rhs column. `basis[i]` is the variable
// occupying row i.
class Tableau {
 public:
  Tableau(const LpProblem& problem) {
    const int m = static_cast<int>(problem.constraints.size());
    const int n = problem.num_vars;
    num_structural_ = n;
    num_slack_ = m;
    // Artificials only for rows whose slack alone cannot form a feasible
    // basis (negative rhs after normalization).
    std::vector<bool> needs_artificial(static_cast<std::size_t>(m), false);
    int artificials = 0;
    for (int i = 0; i < m; ++i) {
      if (problem.constraints[static_cast<std::size_t>(i)].rhs < -kEps) {
        needs_artificial[static_cast<std::size_t>(i)] = true;
        ++artificials;
      }
    }
    num_artificial_ = artificials;
    cols_ = n + m + artificials + 1;  // + rhs
    rows_.assign(static_cast<std::size_t>(m),
                 std::vector<double>(static_cast<std::size_t>(cols_), 0.0));
    basis_.assign(static_cast<std::size_t>(m), -1);

    int next_artificial = n + m;
    for (int i = 0; i < m; ++i) {
      const LpConstraint& c = problem.constraints[static_cast<std::size_t>(i)];
      auto& row = rows_[static_cast<std::size_t>(i)];
      for (const auto& [var, coeff] : c.terms) {
        if (var < 0 || var >= n) throw Error("simplex: variable index out of range");
        row[static_cast<std::size_t>(var)] += coeff;
      }
      row[static_cast<std::size_t>(n + i)] = 1.0;  // slack
      row[static_cast<std::size_t>(cols_ - 1)] = c.rhs;
      if (needs_artificial[static_cast<std::size_t>(i)]) {
        // Normalize to nonnegative rhs: negate the row (slack becomes -1),
        // then add an artificial to restore a basic column.
        for (double& v : row) v = -v;
        row[static_cast<std::size_t>(next_artificial)] = 1.0;
        basis_[static_cast<std::size_t>(i)] = next_artificial;
        ++next_artificial;
      } else {
        basis_[static_cast<std::size_t>(i)] = n + i;
      }
    }
  }

  // Minimizes the given objective over the current feasible basis.
  // Returns false if unbounded.
  bool minimize(const std::vector<double>& costs, LpStats& stats) {
    // Reduced-cost row: z_j - c_j form, built fresh.
    objective_.assign(static_cast<std::size_t>(cols_), 0.0);
    for (int j = 0; j < cols_; ++j) objective_[static_cast<std::size_t>(j)] = 0.0;
    for (std::size_t j = 0; j < costs.size(); ++j) objective_[j] = costs[j];
    // Price out the basic variables.
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const int b = basis_[i];
      const double cb = b < static_cast<int>(costs.size()) ? costs[static_cast<std::size_t>(b)]
                                                           : 0.0;
      if (std::abs(cb) < kEps) continue;
      for (int j = 0; j < cols_; ++j) {
        objective_[static_cast<std::size_t>(j)] -= cb * rows_[i][static_cast<std::size_t>(j)];
      }
    }

    int degenerate_streak = 0;
    bool bland = false;
    for (int guard = 0; guard < 100000; ++guard) {
      // Dantzig's rule (most negative reduced cost, ties to the lowest
      // index); Bland's rule (lowest index with a negative reduced cost)
      // once a degenerate-pivot streak suggests cycling.
      int entering = -1;
      double most_negative = -kEps;
      for (int j = 0; j < cols_ - 1; ++j) {
        const double d = objective_[static_cast<std::size_t>(j)];
        if (d >= (bland ? -kEps : most_negative)) continue;
        entering = j;
        if (bland) break;
        most_negative = d;
      }
      if (entering < 0) return true;  // optimal

      // Ratio test; ties broken by lowest basis index (Bland).
      int leaving = -1;
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        const double a = rows_[i][static_cast<std::size_t>(entering)];
        if (a <= kEps) continue;
        const double ratio = rows_[i][static_cast<std::size_t>(cols_ - 1)] / a;
        if (ratio < best - kEps ||
            (ratio < best + kEps && (leaving < 0 || basis_[i] < basis_[static_cast<std::size_t>(
                                                                  leaving)]))) {
          best = ratio;
          leaving = static_cast<int>(i);
        }
      }
      if (leaving < 0) return false;  // unbounded
      pivot(static_cast<std::size_t>(leaving), entering);
      ++stats.iterations;
      if (bland) ++stats.bland_pivots;
      if (best <= kEps) {
        ++stats.degenerate_pivots;
        if (++degenerate_streak >= kDegeneratePivotStreak) bland = true;
      } else {
        degenerate_streak = 0;
        bland = false;
      }
    }
    throw Error("simplex: iteration limit exceeded");
  }

  double value(int var) const {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (basis_[i] == var) return rows_[i][static_cast<std::size_t>(cols_ - 1)];
    }
    return 0.0;
  }

  bool artificials_zero() const {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (basis_[i] >= num_structural_ + num_slack_ &&
          rows_[i][static_cast<std::size_t>(cols_ - 1)] > 1e-7) {
        return false;
      }
    }
    return true;
  }

  int num_structural() const { return num_structural_; }
  int num_slack() const { return num_slack_; }
  int num_artificial() const { return num_artificial_; }
  int cols() const { return cols_; }

  // Drives any artificial still in the basis (at value 0) out, so phase 2
  // cannot reintroduce infeasibility.
  void expel_artificials() {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (basis_[i] < num_structural_ + num_slack_) continue;
      for (int j = 0; j < num_structural_ + num_slack_; ++j) {
        if (std::abs(rows_[i][static_cast<std::size_t>(j)]) > kEps) {
          pivot(i, j);
          break;
        }
      }
    }
  }

  // Zeroes every expelled artificial column: a zero column with zero cost
  // always prices at exactly zero, so phase 2 can never pivot an artificial
  // back in — unlike a big-M cost, which a real variable with a larger
  // objective magnitude can swamp. An artificial still basic after
  // expel_artificials() sits in a redundant all-zero row at value 0; its
  // unit column is kept so the basis stays consistent, and that row can
  // never win the ratio test.
  void drop_artificials() {
    for (int j = num_structural_ + num_slack_; j < cols_ - 1; ++j) {
      bool basic = false;
      for (const int b : basis_) {
        if (b == j) {
          basic = true;
          break;
        }
      }
      if (basic) continue;
      for (auto& row : rows_) row[static_cast<std::size_t>(j)] = 0.0;
    }
  }

 private:
  void pivot(std::size_t row, int col) {
    auto& pivot_row = rows_[row];
    const double p = pivot_row[static_cast<std::size_t>(col)];
    for (double& v : pivot_row) v /= p;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i == row) continue;
      const double factor = rows_[i][static_cast<std::size_t>(col)];
      if (std::abs(factor) < kEps) continue;
      for (int j = 0; j < cols_; ++j) {
        rows_[i][static_cast<std::size_t>(j)] -= factor * pivot_row[static_cast<std::size_t>(j)];
      }
    }
    const double factor = objective_[static_cast<std::size_t>(col)];
    if (std::abs(factor) > kEps) {
      for (int j = 0; j < cols_; ++j) {
        objective_[static_cast<std::size_t>(j)] -= factor * pivot_row[static_cast<std::size_t>(j)];
      }
    }
    basis_[row] = col;
  }

  int num_structural_ = 0;
  int num_slack_ = 0;
  int num_artificial_ = 0;
  int cols_ = 0;
  std::vector<std::vector<double>> rows_;
  std::vector<double> objective_;
  std::vector<int> basis_;
};

}  // namespace

LpSolution solve_dense_tableau(const LpProblem& problem) {
  detail::check_dimensions(problem);
  // No bounded-variable machinery: bounded instances solve the
  // row-augmented equivalent.
  if (detail::has_finite_upper(problem)) {
    return solve_dense_tableau(detail::upper_bounds_as_rows(problem));
  }

  LpSolution solution;
  Tableau tableau(problem);

  if (tableau.num_artificial() > 0) {
    // Phase 1: minimize the artificial sum.
    std::vector<double> phase1(static_cast<std::size_t>(tableau.cols() - 1), 0.0);
    for (int j = tableau.num_structural() + tableau.num_slack(); j < tableau.cols() - 1; ++j) {
      phase1[static_cast<std::size_t>(j)] = 1.0;
    }
    if (!tableau.minimize(phase1, solution.stats)) {
      throw Error("simplex: phase 1 unbounded (bug)");
    }
    // Recorded before the feasibility verdict: an infeasible solve's
    // pivots were all phase-1 work too.
    solution.stats.phase1_pivots = solution.stats.iterations;
    if (!tableau.artificials_zero()) {
      solution.feasible = false;
      return solution;
    }
    tableau.expel_artificials();
    tableau.drop_artificials();
  }

  // Phase 2: the real objective. The artificial columns were zeroed above
  // and cost zero here, so they can never re-enter the basis.
  std::vector<double> phase2(static_cast<std::size_t>(tableau.cols() - 1), 0.0);
  for (int j = 0; j < problem.num_vars; ++j) {
    phase2[static_cast<std::size_t>(j)] = problem.objective[static_cast<std::size_t>(j)];
  }
  if (!tableau.minimize(phase2, solution.stats)) {
    solution.feasible = true;
    solution.bounded = false;
    return solution;
  }

  solution.feasible = true;
  solution.x.resize(static_cast<std::size_t>(problem.num_vars));
  for (int j = 0; j < problem.num_vars; ++j) {
    solution.x[static_cast<std::size_t>(j)] = tableau.value(j);
  }
  solution.objective = 0.0;
  for (int j = 0; j < problem.num_vars; ++j) {
    solution.objective += problem.objective[static_cast<std::size_t>(j)] *
                          solution.x[static_cast<std::size_t>(j)];
  }
  return solution;
}

}  // namespace rsg::compact::oracle
