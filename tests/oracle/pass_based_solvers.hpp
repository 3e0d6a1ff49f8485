// §6.4.2's pass-based Bellman–Ford: full sweeps over the edge list until a
// pass changes nothing. The worklist solvers (compact/bellman_ford.hpp) are
// checked against it, and bench_t642_bellman counts its passes by edge
// order. Test code: built only with the suites or the benches, never
// linked into the product libraries.
#pragma once

#include <vector>

#include "compact/bellman_ford.hpp"

namespace rsg::compact::oracle {

enum class EdgeOrder {
  kSorted,     // by the source variable's initial abscissa (§6.4.2)
  kInsertion,  // as generated
  kReversed,   // adversarial: worst case for the relaxation count
};

// The least solution into system.values. SolveStats::passes counts the
// sweeps, the final no-change one included. Throws rsg::Error on an
// infeasible system (a positive cycle) once |V| + 2 passes have not
// converged.
SolveStats solve_leftmost(ConstraintSystem& system, EdgeOrder order = EdgeOrder::kSorted);

// The greatest solution subject to every variable <= width, into
// `upper_bounds`.
SolveStats solve_rightmost(ConstraintSystem& system, Coord width,
                           std::vector<Coord>& upper_bounds);

}  // namespace rsg::compact::oracle
