// The linear-programming solver of leaf-cell compaction.
//
// §6.3: the leaf-cell constraint graph "cannot be solved by shortest path
// algorithms such as Bellman Ford because the weights on the edges are not
// all constants ... a simple minded way to solve the system would be to
// convert the graph to a system of linear equations and solve the system
// using a linear programming algorithm like Simplex" — solve_lp is that
// solver, and it has one path:
//
//   minimize  c . x   subject to  sum_j a_ij x_j <= b_i ,  0 <= x <= u
//
// solve_lp runs a BOUNDED-VARIABLE dual simplex (sparse_simplex.cpp) over a
// column-major (CSC) constraint matrix, from the all-slack basis. Every
// variable carries [0, u_j] bounds (u_j may be +inf); nonbasic variables
// sit at either bound, and a negative-cost column starts nonbasic AT ITS
// UPPER BOUND, which is dual-feasible with no artificial machinery and no
// phase 1 (the leaf LP's objective is emitted componentwise nonnegative, so
// there every column simply starts at zero). Columns with a negative cost
// and no finite user bound get a large WORKING bound; if the optimum ever
// rests on a working bound the engine DECLINES. The ratio test is two-pass
// Harris: pass 1 computes the tolerance-relaxed ratio bound, pass 2 takes
// the largest-magnitude pivot inside it, and a pivot-magnitude floor
// declines rather than admit a near-singular pivot into the factorization.
// Each pivot costs what its pivot row touches: the row alpha_r = rho^T A_N
// is formed from the nonzeros of rho = e_r^T B^-1 through a row-wise (CSR)
// copy of the matrix, the ratio test scans those columns only, and the
// reduced costs are UPDATED along the row (d_j -= theta_d alpha_rj),
// re-priced from one BTRAN of c_B only at the start and after each
// refactorization.
//
// The leaving row is the largest bound violation among the slots a bitmap
// flags: those violating when the basic values were last recomputed plus
// every slot a pivot has moved since, each unflagged once a scan finds it
// feasible. That is a superset of the violating slots, scanned in slot
// order with the full scan's comparison, so the choice is the full scan's.
//
// The basis inverse is a sparse LU factorization: Markowitz-ordered
// elimination at refactorization, Forrest–Tomlin updates per pivot, and
// refactorization triggered by EITHER a pivot-count interval or measured
// nnz growth of the factors. A refactorization reuses the storage of the
// one before (cleared workspaces, one flat L file), and an update moves
// its slot to the end of the pivot order in O(1) (a fresh position plus a
// tombstone the dense solves skip). LpStats::refactor_ms is the wall time
// refactorizing takes. FTRAN/BTRAN are hyper-sparse: the triangular
// solves walk only the positions reachable from the nonzeros of the
// right-hand side, cutting over to the plain dense-ordered loop when the
// rhs is dense (LpStats::ftran_rows_skipped measures it).
//
// A DECLINE — lost dual feasibility, an active working bound, a vanishing
// pivot, a singular refactorization or a stall — hands the unchanged
// problem to the one fallback: a two-phase PRIMAL revised simplex on the
// same CSC + LU machinery (detail::solve_lp_primal), pricing with
// Dantzig's rule and solving bounded instances in their row-augmented
// form. It switches to Bland's rule after a streak of degenerate pivots
// (anti-cycling), reverting once a pivot makes progress. LpStats says
// whether the fallback ran (dual_fallbacks) and what the abandoned dual
// attempt cost (declined_*).
//
// solve_lp also accepts an LpWarmStart basis (a previous solve over the
// same rows, in any order and under any rhs), falling back to the cold
// all-slack start when the carried rows do not match or the basis is
// singular or dual-infeasible.
//
// The suites check both engines against a dense two-phase tableau that
// lives with the tests (tests/oracle/dense_tableau.hpp), not in this
// library.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace rsg::compact {

// The "no upper bound" sentinel of LpProblem::upper.
inline constexpr double kLpUnbounded = std::numeric_limits<double>::infinity();

struct LpConstraint {
  std::vector<std::pair<int, double>> terms;  // (variable index, coefficient)
  double rhs = 0.0;
};

struct LpProblem {
  int num_vars = 0;
  std::vector<double> objective;  // size num_vars
  std::vector<LpConstraint> constraints;
  // Optional per-variable upper bounds: empty means every variable is
  // unbounded above; otherwise size num_vars with kLpUnbounded for the
  // unbounded entries. The dual simplex honors these natively (nonbasic
  // variables may rest at either bound); the primal fallback solves the
  // row-augmented equivalent.
  std::vector<double> upper;
};

struct LpStats {
  int iterations = 0;         // pivots of the AUTHORITATIVE solve, all phases
  int degenerate_pivots = 0;  // pivots with (numerically) zero step
  int bland_pivots = 0;       // pivots taken under the anti-cycling fallback
  int refactorizations = 0;   // fresh LU factorizations
  int nnz_refactorizations = 0;  // the subset triggered by factor nnz growth
                                 // (Forrest–Tomlin fill), not the pivot count
  int phase1_pivots = 0;      // primal fallback: pivots spent reaching feasibility
  int dual_pivots = 0;        // dual-iteration pivots
  int dual_fallbacks = 0;     // 1 when the dual declined and the primal
                              // fallback finished the solve
  // A declined dual attempt's work is reported HERE, not folded into the
  // primal totals above: after a DECLINE->primal fallback, `iterations` /
  // `refactorizations` / `wall_ms` describe the primal solve alone and the
  // abandoned attempt is accounted separately (pinned by sparse_simplex_test).
  int declined_dual_pivots = 0;
  int declined_refactorizations = 0;
  double declined_wall_ms = 0.0;
  double wall_ms = 0.0;  // wall time of the authoritative solve
  // The part of wall_ms spent refactorizing: LU factorization plus the
  // recomputed basic values, the initial slack-basis factorization
  // included.
  double refactor_ms = 0.0;
  // Warm starts: attempts = an LpWarmStart handle with matching
  // shape was offered; accepted = its rows matched this problem's by
  // content, and its basis factorized nonsingular AND priced dual-feasible,
  // so the solve continued from it instead of the cold all-slack start.
  int warm_attempted = 0;
  int warm_accepted = 0;
  // Why an offered handle was declined, one counter per reason: its rows
  // do not match (a different shape, which is not an attempt, or a row
  // whose terms have no partner), its basis is singular (or names a column
  // twice), or it is dual-infeasible under this problem's costs (or rests
  // a column on a bound it no longer has).
  int warm_declined_rows = 0;
  int warm_declined_singular = 0;
  int warm_declined_dual = 0;
  // Hyper-sparse FTRAN telemetry: total upper-triangular positions across
  // every FTRAN, and how many the graph-ordered solve never touched. The
  // skip ratio (skipped / rows) is what bench_leaf_scaling publishes per
  // library size.
  long long ftran_rows = 0;
  long long ftran_rows_skipped = 0;

  // Field-wise sum — the single merge point for the leaf schedule's
  // per-pass accumulation, so a future counter cannot be threaded through
  // one site and missed in another.
  LpStats& operator+=(const LpStats& other) {
    iterations += other.iterations;
    degenerate_pivots += other.degenerate_pivots;
    bland_pivots += other.bland_pivots;
    refactorizations += other.refactorizations;
    nnz_refactorizations += other.nnz_refactorizations;
    phase1_pivots += other.phase1_pivots;
    dual_pivots += other.dual_pivots;
    dual_fallbacks += other.dual_fallbacks;
    declined_dual_pivots += other.declined_dual_pivots;
    declined_refactorizations += other.declined_refactorizations;
    declined_wall_ms += other.declined_wall_ms;
    wall_ms += other.wall_ms;
    refactor_ms += other.refactor_ms;
    warm_attempted += other.warm_attempted;
    warm_accepted += other.warm_accepted;
    warm_declined_rows += other.warm_declined_rows;
    warm_declined_singular += other.warm_declined_singular;
    warm_declined_dual += other.warm_declined_dual;
    ftran_rows += other.ftran_rows;
    ftran_rows_skipped += other.ftran_rows_skipped;
    return *this;
  }
};

struct LpSolution {
  bool feasible = false;
  bool bounded = true;
  std::vector<double> x;
  double objective = 0.0;
  LpStats stats;
};

// A basis carried from one solve_lp call into the next — the warm-start
// contract of the leaf schedule's per-round re-solves. The handle is OPAQUE
// state: callers only construct an empty one, pass it to consecutive solves
// and let the engine manage it. The carried basis names slack columns by
// row position, but rows are matched by CONTENT: each row's key hashes its
// merged terms (column, coefficient) and leaves the rhs out, since duals
// do not depend on it. A problem whose rows are the carried ones in any
// order, under any rhs, maps every slack to its row's new position; rows
// with equal keys pair up in position order. The engine accepts the
// carried basis only when the shape matches, every row key has a partner,
// the basis factorizes nonsingular AND it prices dual-feasible; anything
// else falls back to the cold all-slack start (LpStats::warm_attempted,
// warm_accepted and warm_declined_* tell the cases apart). A hash
// collision can cost a decline or extra pivots, never a wrong optimum: any
// nonsingular dual-feasible basis is a valid start. A solve that DECLINES
// to the primal fallback clears the handle, so a stale basis can never leak
// into a later round.
struct LpWarmStart {
  std::vector<int> basis;               // slot -> column (structural or slack)
  std::vector<unsigned char> at_upper;  // nonbasic-at-upper flags, per column
  std::vector<std::uint64_t> row_keys;  // per row: content key, rhs left out
  int num_vars = 0;                     // shape stamp: structural variables
  bool valid() const { return !row_keys.empty() && basis.size() == row_keys.size(); }
  void clear() {
    basis.clear();
    at_upper.clear();
    row_keys.clear();
    num_vars = 0;
  }
};

// The dual simplex with its primal fallback. `warm` (optional) is read
// before the solve and refreshed by its optimum; see LpWarmStart for the
// acceptance contract. Throws rsg::Error on malformed problems.
LpSolution solve_lp(const LpProblem& problem, LpWarmStart* warm = nullptr);

// After this many consecutive degenerate pivots the primal simplex switches
// from Dantzig to Bland pricing until a pivot makes progress. Exposed so
// the anti-cycling regression tests can reason about when the guard engages.
inline constexpr int kDegeneratePivotStreak = 12;

namespace detail {
// Throws rsg::Error unless `objective` (and a non-empty `upper`) has one
// entry per variable. Every solve checks this first.
void check_dimensions(const LpProblem& problem);

// True when LpProblem::upper carries at least one finite bound.
bool has_finite_upper(const LpProblem& problem);

// The row-augmented equivalent: `upper` cleared, one x_j <= u_j constraint
// appended per finite bound. The primal fallback solves THIS problem on
// bounded instances (identical optimum, identical x).
LpProblem upper_bounds_as_rows(const LpProblem& problem);

// The primal fallback on its own (sparse_simplex.cpp), for the suites that
// cross-check it.
LpSolution solve_lp_primal(const LpProblem& problem);

// Reusable-LpSolution variants of the primal fallback and of solve_lp:
// `solution` may carry state from a previous solve; its stats are reset at
// entry (NOT accumulated — pinned by sparse_simplex_test) before the result
// is written over it.
void solve_lp_primal_into(const LpProblem& problem, LpSolution& solution);
void solve_lp_dual_into(const LpProblem& problem, LpSolution& solution,
                        LpWarmStart* warm = nullptr);
}  // namespace detail

}  // namespace rsg::compact
