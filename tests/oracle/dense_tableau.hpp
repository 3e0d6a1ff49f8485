// The dense two-phase simplex tableau: the reference the LP suites and
// bench_leaf_scaling check the production leaf-LP path against.
//
// It updates every row on every pivot — O(m * cols) work per iteration —
// and prices with Dantzig's rule, falling back to Bland's rule after
// kDegeneratePivotStreak consecutive degenerate pivots, exactly as the
// primal engine does. Bounded instances (a finite LpProblem::upper) solve
// the row-augmented equivalent (detail::upper_bounds_as_rows). It is test
// code: built only with the suites or the benches, never linked into the
// product libraries.
#pragma once

#include "compact/simplex.hpp"

namespace rsg::compact::oracle {

// Same contract as solve_lp, minus warm starts; LpStats reports iterations,
// degenerate, Bland and phase-1 pivots only. Throws rsg::Error on malformed
// problems (the same checks solve_lp makes).
LpSolution solve_dense_tableau(const LpProblem& problem);

}  // namespace rsg::compact::oracle
