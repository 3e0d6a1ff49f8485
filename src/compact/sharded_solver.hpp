// Concurrent sharded solving of the flat constraint system.
//
// The least solution of a difference-constraint system is the unique
// fixpoint of monotone relaxation from zero, so ANY relaxation schedule
// that reaches a fixpoint reaches the same one — including this one:
// solve every shard of a ShardPlan to its local fixpoint concurrently
// (each worker writes only its own shard's variables and reads foreign
// values through a frozen per-round snapshot), then reconcile by checking
// the boundary constraints and re-solving only the shards whose inputs
// moved. When no boundary constraint is violated the global fixpoint is
// reached and the values are byte-identical to solve_leftmost_worklist's.
//
// Infeasibility (a positive cycle) stays a single verdict: a cycle inside
// one shard trips the local SPFA enqueue guard; a cycle threaded through
// several shards pumps its boundary variables past the sum of positive
// weights — both throw rsg::Error with the serial solver's message prefix,
// but only the serial solver's PositiveCycle carries the cycle. If
// reconciliation hits its round cap without converging (pathologically
// coupled shards), the solver falls back to one serial cold solve, so the
// result is exact regardless; the ConvergenceReport records that the cap
// bit.
#pragma once

#include <cstddef>

#include "compact/bellman_ford.hpp"
#include "compact/shard_partition.hpp"

namespace rsg::compact {

struct ShardedSolveOptions {
  // Worker threads for the per-round shard solves; <= 0 means one per
  // hardware core (the resolve_sweep_threads convention).
  int threads = 0;
  // Reconciliation round cap; <= 0 picks max(32, 8 * shard_count).
  int max_reconcile_rounds = 0;
};

struct ShardedSolveStats {
  int shards = 0;                       // shards actually solved (0: never ran)
  std::size_t boundary_constraints = 0;
  ConvergenceReport reconcile;          // rounds vs the reconcile cap
  std::size_t boundary_churn = 0;       // violated boundary constraints, all rounds
  std::size_t shard_solves = 0;         // shard-round solve tasks run
  bool fell_back_serial = false;        // cap hit -> serial cold re-solve
};

// Solves into system.values, byte-identical to solve_leftmost_worklist.
// A single-shard plan or a system with free pitch variables delegates to
// the serial worklist solver unchanged. Throws rsg::Error on infeasible
// systems (same message as the serial solvers).
SolveStats solve_leftmost_sharded(ConstraintSystem& system, const ShardPlan& plan,
                                  const ShardedSolveOptions& options = {},
                                  ShardedSolveStats* out_stats = nullptr);

}  // namespace rsg::compact
