// Constraint solving by Bellman–Ford relaxation (§6.4.2).
//
// Assigns each variable the LOWEST abscissa satisfying all constraints —
// pushing "all the objects in a layout as much to the left as they can go".
// Pitch terms are read at their fixed values (leaf compaction, whose
// pitches are unknowns, uses the LP solver instead).
//
// The two worklist solvers below are the only longest-path solvers in the
// library. §6.4.2's pass-based solver, with its edge orders, is test-only
// code in tests/oracle: the oracle the worklist tests compare against, and
// what bench_t642_bellman counts passes with. Its observation survives
// here as the seeding sweep: visiting variables in order of initial
// abscissa makes the initial ordering a good estimate of the final one,
// and "in the case where the initial ordering is preserved in the final
// layout exactly one relaxation step is required instead of the |V|
// required in the worst case".
#pragma once

#include <vector>

#include "compact/constraint_graph.hpp"
#include "support/error.hpp"

namespace rsg::compact {

struct SolveStats {
  // Worklist solvers: seeding sweeps, one for a cold solve plus one for a
  // warm attempt (so 1 or 2). The test oracle's pass-based solvers
  // (tests/oracle) count §6.4.2's full edge-list passes instead, the final
  // no-change pass included.
  int passes = 0;
  std::size_t relaxations = 0;    // individual successful tightenings
  // Worklist solvers: variables dequeued after the seeding sweep (the
  // sweep visits every variable once and is not counted), plus every
  // dequeue of a warm start.
  std::size_t pops = 0;
  bool converged = false;
  // Warm start (the incremental x/y schedule seeds each round's solve from
  // the previous round's coordinates). `warm_accepted` means the seeded
  // fixpoint was verified as the exact least (greatest) solution;
  // `warm_pops_saved` counts the variables whose seeded value survived to
  // the solution — work a cold solve would have spent raising them from the
  // source distance. A rejected warm start falls back to the cold path, so
  // the returned values are always the exact extreme solution.
  bool warm_attempted = false;
  bool warm_accepted = false;
  std::size_t warm_pops_saved = 0;
};

// The worklist solvers' infeasibility verdict and its certificate: a
// positive cycle of constraint indices chained head to tail
// (constraints()[cycle[k]].to == constraints()[cycle[k + 1]].from, the last
// closing onto the first) whose weights minus pitch terms sum to > 0.
// Summing X[to] - X[from] >= weight - pitch term around the cycle gives
// 0 >= that positive sum, so no placement satisfies the system.
// relaxations() is the work the solve spent before the verdict.
class PositiveCycle : public Error {
 public:
  PositiveCycle(std::vector<std::size_t> cycle, std::size_t relaxations);

  const std::vector<std::size_t>& cycle() const { return cycle_; }
  std::size_t relaxations() const { return relaxations_; }

 private:
  std::vector<std::size_t> cycle_;
  std::size_t relaxations_ = 0;
};

// The leftmost solution into system.values, and the rightmost one subject
// to every variable <= width into `upper_bounds` (the rubber band's slack
// intervals). These are the solvers every flat pass runs (compact_flat,
// the incremental engine, the rubber band): Bellman–Ford with a FIFO
// worklist and Tarjan's subtree disassembly. The worklist's first round is
// §6.4.2's seeding sweep: the origin constraints, then every variable's
// out-edges (in-edges for the rightmost dual) in order of initial abscissa
// (descending for the dual). After it only variables whose value changed
// are revisited, so sparse updates stop touching the whole edge list. The
// solver keeps its longest-path tree as a preorder thread: raising a
// variable detaches its subtree, whose members are skipped until they are
// raised again through it, and a raise from inside the raised variable's
// own subtree closes a positive cycle — thrown as PositiveCycle, the tree
// path plus the closing constraint as the certificate. The least
// (greatest) solution is unique, so the values are identical to the
// oracle's pass-based solvers'.
//
// `warm_seed` (optional, size == variable_count) warm-starts the solve from
// a previous solution instead of the source distance: the values are seeded
// (clamped into the feasible half-line), raised (lowered) to a fixpoint by
// the worklist, and the fixpoint is then VERIFIED as the least (greatest)
// solution by walking tight constraints from the anchors — any solution is
// an upper (lower) bound on the extreme solution, so tight-chain support
// for every variable proves exactness. A seed that fails verification
// falls back to the cold solve, so warm starting never changes the result,
// only the work (SolveStats reports the outcome). `seed_feasible` is the
// caller's word that the seed already satisfies every constraint (the
// incremental engine's warm gate checks exactly that): the warm phase then
// skips its first relaxation sweep, which could raise nothing, and goes
// straight to verification. Every SolveStats field reads as without it.
SolveStats solve_leftmost_worklist(ConstraintSystem& system,
                                   const std::vector<Coord>* warm_seed = nullptr,
                                   bool seed_feasible = false);
SolveStats solve_rightmost_worklist(ConstraintSystem& system, Coord width,
                                    std::vector<Coord>& upper_bounds,
                                    const std::vector<Coord>* warm_seed = nullptr);

}  // namespace rsg::compact
