// Linear-programming solvers for leaf-cell compaction.
//
// §6.3: the leaf-cell constraint graph "cannot be solved by shortest path
// algorithms such as Bellman Ford because the weights on the edges are not
// all constants ... a simple minded way to solve the system would be to
// convert the graph to a system of linear equations and solve the system
// using a linear programming algorithm like Simplex" — these are those
// solvers. Two interchangeable methods sit behind one entry point:
//
//   kDenseTableau   the original two-phase dense tableau, O(m * cols) per
//                   pivot. Kept as the equivalence baseline for the sparse
//                   engine, the same way generate_constraints_reference
//                   pins the scaled constraint generator.
//   kSparseRevised  a revised simplex on a column-major (CSC) constraint
//                   matrix. The basis inverse is a sparse LU factorization:
//                   Markowitz-ordered elimination at refactorization,
//                   Forrest–Tomlin updates per pivot, and refactorization
//                   triggered by EITHER a pivot-count interval or measured
//                   nnz growth of the factors. FTRAN/BTRAN are hyper-sparse:
//                   the triangular solves walk only the positions reachable
//                   from the nonzeros of the right-hand side (graph-ordered),
//                   cutting over to the plain dense-ordered loop when the
//                   rhs is dense. Leaf-compaction systems have <= 3 nonzeros
//                   per row, so each iteration is O(m + nnz) instead of
//                   O(m^2) — and the solves themselves touch far fewer than
//                   m rows (LpStats::ftran_rows_skipped measures it).
//   kSparseDual     the same CSC + LU machinery driven by the DUAL simplex
//                   from the all-slack basis with a BOUNDED-VARIABLE ratio
//                   test: every variable carries [0, u_j] bounds (u_j may be
//                   +inf), nonbasic variables sit at either bound, and a
//                   negative-cost column starts nonbasic AT ITS UPPER BOUND,
//                   which is dual-feasible with no artificial machinery at
//                   all — the Lemke bound row of the previous engine is
//                   retired. Columns with a negative cost and no finite
//                   user bound get a large WORKING bound; if the optimum
//                   ever rests on a working bound the engine DECLINES to
//                   the primal path (the honest analogue of the old
//                   bound-row-tight decline). The ratio test is two-pass
//                   Harris: pass 1 computes the tolerance-relaxed ratio
//                   bound, pass 2 takes the largest-magnitude pivot inside
//                   it, and a pivot-magnitude floor declines rather than
//                   admit a near-singular pivot into the factorization.
//                   Each pivot costs what its pivot row touches: the row
//                   alpha_r = rho^T A_N is formed from the nonzeros of
//                   rho = e_r^T B^-1 through a row-wise (CSR) copy of the
//                   matrix, the ratio test scans those columns only, and
//                   the reduced costs are UPDATED along the row
//                   (d_j -= theta_d alpha_rj), re-priced from one BTRAN of
//                   c_B only at the start and after each refactorization.
//                   The engine also accepts an LpWarmStart basis (a
//                   previous solve over the same rows, in any order and
//                   under any rhs), falling back to the cold all-slack
//                   start when the carried rows do not match or the basis
//                   is singular or dual-infeasible.
//
// The primal engine prices with Dantzig's rule or devex (LpPricing):
// devex weighs each reduced cost by an estimate of the entering column's
// steepness in the reference framework, typically cutting the pivot count
// on the larger leaf libraries at one extra BTRAN per pivot. The dense
// baseline always prices Dantzig. Both engines fall back to Bland's rule
// after a streak of degenerate pivots (anti-cycling), reverting once a
// pivot makes progress.
//
//   minimize  c . x   subject to  sum_j a_ij x_j <= b_i ,  0 <= x <= u
//
// Upper bounds (`LpProblem::upper`) are handled NATIVELY by the dual
// engine; the dense tableau and the sparse primal engine solve the
// equivalent row-augmented problem (one x_j <= u_j row per finite bound),
// so every engine agrees on bounded instances.
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
  // unbounded entries. The dual engine honors these natively (nonbasic
  // variables may rest at either bound); the primal engines solve the
  // row-augmented equivalent.
  std::vector<double> upper;
};

enum class LpMethod {
  kDenseTableau,   // the pre-scaling baseline
  kSparseRevised,  // CSC + Markowitz-LU/Forrest–Tomlin revised simplex (primal)
  kSparseDual,     // bounded-variable dual simplex from the all-slack basis
};

// Pricing rule of the sparse revised engine. The dense tableau is the
// equivalence baseline and always prices Dantzig, whatever is requested.
enum class LpPricing {
  kDantzig,  // most negative reduced cost
  kDevex,    // reference-framework devex (Harris): d_j^2 / w_j, weights
             // updated from the pivot row and reset on refactorization
};

struct LpStats {
  int iterations = 0;         // pivots of the AUTHORITATIVE solve, all phases
  int degenerate_pivots = 0;  // pivots with (numerically) zero step
  int bland_pivots = 0;       // pivots taken under the anti-cycling fallback
  int refactorizations = 0;   // sparse methods: fresh LU factorizations
  int nnz_refactorizations = 0;  // the subset triggered by factor nnz growth
                                 // (Forrest–Tomlin fill), not the pivot count
  int phase1_pivots = 0;      // primal engines: pivots spent reaching feasibility
  int dual_pivots = 0;        // kSparseDual: dual-iteration pivots
  int dual_fallbacks = 0;     // kSparseDual: 1 when the dual declined and the
                              // primal engine finished the solve
  // A declined dual attempt's work is reported HERE, not folded into the
  // primal totals above: after a DECLINE->primal fallback, `iterations` /
  // `refactorizations` / `wall_ms` describe the primal solve alone and the
  // abandoned attempt is accounted separately (pinned by sparse_simplex_test).
  int declined_dual_pivots = 0;
  int declined_refactorizations = 0;
  double declined_wall_ms = 0.0;
  double wall_ms = 0.0;  // wall time of the authoritative sparse solve
                         // (the dense baseline does not report it)
  // kSparseDual warm starts: attempts = an LpWarmStart handle with matching
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

// A basis carried from one kSparseDual solve into the next — the warm-start
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
// to the primal engine clears the handle, so a stale basis can never leak
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

// Engine selection in one knob: which simplex runs and how it prices.
// The default is the dual engine — on compaction LPs it skips phase 1
// outright — with the primal engine as its documented fallback; `pricing`
// applies to the primal engines (the dual selects rows, not columns).
struct LpOptions {
  LpMethod method = LpMethod::kSparseDual;
  LpPricing pricing = LpPricing::kDantzig;
};

LpSolution solve_lp(const LpProblem& problem, const LpOptions& options);
LpSolution solve_lp(const LpProblem& problem, LpMethod method = LpMethod::kSparseRevised,
                    LpPricing pricing = LpPricing::kDantzig);
// Warm-started variant: only the kSparseDual engine consumes `warm` (the
// primal engines ignore it); see LpWarmStart for the acceptance contract.
LpSolution solve_lp(const LpProblem& problem, const LpOptions& options, LpWarmStart* warm);

// After this many consecutive degenerate pivots both methods switch from
// Dantzig to Bland pricing until a pivot makes progress. Exposed so the
// anti-cycling regression tests can reason about when the guard engages.
inline constexpr int kDegeneratePivotStreak = 12;

namespace detail {
// True when LpProblem::upper carries at least one finite bound.
bool has_finite_upper(const LpProblem& problem);

// The row-augmented equivalent: `upper` cleared, one x_j <= u_j constraint
// appended per finite bound. The dense tableau and the sparse primal engine
// solve THIS problem on bounded instances (identical optimum, identical x).
LpProblem upper_bounds_as_rows(const LpProblem& problem);

// The kSparseRevised engine (sparse_simplex.cpp). Call through solve_lp.
LpSolution solve_lp_sparse(const LpProblem& problem, LpPricing pricing = LpPricing::kDantzig);

// The kSparseDual engine (sparse_simplex.cpp). Call through solve_lp.
// `pricing` is the pricing rule of the primal fallback.
LpSolution solve_lp_sparse_dual(const LpProblem& problem,
                                LpPricing pricing = LpPricing::kDantzig);

// Reusable-LpSolution variants: `solution` may carry state from a previous
// solve; its stats are reset at entry (NOT accumulated — pinned by
// sparse_simplex_test) before the result is written over it.
void solve_lp_sparse_into(const LpProblem& problem, LpPricing pricing, LpSolution& solution);
void solve_lp_sparse_dual_into(const LpProblem& problem, LpPricing pricing, LpSolution& solution,
                               LpWarmStart* warm = nullptr);
}  // namespace detail

}  // namespace rsg::compact
