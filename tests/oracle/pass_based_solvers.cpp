#include "oracle/pass_based_solvers.hpp"

#include <algorithm>
#include <numeric>

#include "support/error.hpp"

namespace rsg::compact::oracle {

namespace {

std::vector<std::size_t> edge_order(const ConstraintSystem& system, EdgeOrder order) {
  std::vector<std::size_t> indices(system.constraint_count());
  std::iota(indices.begin(), indices.end(), 0);
  if (order == EdgeOrder::kInsertion) return indices;
  std::stable_sort(indices.begin(), indices.end(), [&](std::size_t i, std::size_t j) {
    const Constraint& a = system.constraints()[i];
    const Constraint& b = system.constraints()[j];
    const Coord xa = a.from < 0 ? 0 : system.initial(a.from);
    const Coord xb = b.from < 0 ? 0 : system.initial(b.from);
    return xa < xb;
  });
  if (order == EdgeOrder::kReversed) std::reverse(indices.begin(), indices.end());
  return indices;
}

Coord pitch_term(const ConstraintSystem& system, const Constraint& c) {
  if (c.pitch < 0) return 0;
  return c.pitch_coeff * system.pitch_values[static_cast<std::size_t>(c.pitch)];
}

}  // namespace

SolveStats solve_leftmost(ConstraintSystem& system, EdgeOrder order) {
  SolveStats stats;
  const std::vector<std::size_t> edges = edge_order(system, order);

  // Least solution of X[to] >= X[from] + w - pitch with X >= 0: start at 0
  // and raise until fixpoint (longest path from the implicit origin).
  std::fill(system.values.begin(), system.values.end(), 0);

  const int max_passes = static_cast<int>(system.variable_count()) + 2;
  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    bool changed = false;
    for (const std::size_t e : edges) {
      const Constraint& c = system.constraints()[e];
      const Coord from = c.from < 0 ? 0 : system.values[static_cast<std::size_t>(c.from)];
      const Coord bound = from + c.weight - pitch_term(system, c);
      Coord& to = system.values[static_cast<std::size_t>(c.to)];
      if (to < bound) {
        to = bound;
        ++stats.relaxations;
        changed = true;
      }
    }
    if (!changed) {
      stats.converged = true;
      return stats;
    }
  }
  throw Error("compaction constraints are infeasible (positive cycle)");
}

SolveStats solve_rightmost(ConstraintSystem& system, Coord width,
                           std::vector<Coord>& upper_bounds) {
  SolveStats stats;
  // Greatest solution with X <= width: start at the ceiling and lower each
  // variable to satisfy X[to] - X[from] >= w as a bound on X[from]:
  // X[from] <= X[to] - w + pitch.
  upper_bounds.assign(system.variable_count(), width);
  const int max_passes = static_cast<int>(system.variable_count()) + 2;
  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    bool changed = false;
    for (const Constraint& c : system.constraints()) {
      if (c.from < 0) continue;  // anchors bound from below only
      const Coord bound =
          upper_bounds[static_cast<std::size_t>(c.to)] - c.weight + pitch_term(system, c);
      Coord& from = upper_bounds[static_cast<std::size_t>(c.from)];
      if (from > bound) {
        from = bound;
        ++stats.relaxations;
        changed = true;
      }
    }
    if (!changed) {
      stats.converged = true;
      return stats;
    }
  }
  throw Error("compaction constraints are infeasible (positive cycle)");
}

}  // namespace rsg::compact::oracle
