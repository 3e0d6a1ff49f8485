// The engines behind solve_lp: the bounded-variable dual simplex and its
// primal fallback, one revised simplex class over a column-major (CSC)
// constraint matrix with an LU-factorized basis.
//
// A dense tableau updates every row on every pivot — O(m * cols) work per
// iteration. This engine never materializes the tableau, nor a product
// form inverse:
//
//   * The constraint matrix is stored once in CSC form (slack and
//     artificial columns are implicit unit vectors), so primal pricing is
//     one BTRAN plus a single pass over the stored nonzeros. The dual
//     simplex adds a CSR copy and never prices the whole matrix per pivot
//     (see below).
//   * The basis inverse is a sparse LU factorization (LuBasis).
//     Refactorization runs Markowitz-ordered elimination: each pivot
//     minimizes (row_count-1)*(col_count-1) among entries within a
//     relative magnitude threshold of their column max, which is what
//     keeps the factors of a <= 3-nonzero-per-row compaction basis at
//     O(m) nonzeros. Unit (slack/artificial) columns score zero and are
//     eliminated first, for free.
//   * Each pivot applies a Forrest–Tomlin update: the spiked column is
//     moved to the last pivot position and the spiked ROW is eliminated
//     against the in-between rows of U, appending one row eta to the L
//     file — O(row fill) per pivot instead of a fresh factorization. The
//     move is O(1): the slot takes a fresh position past every other and
//     leaves a tombstone that the dense solves skip; every other slot
//     keeps its position, and positions are only ever compared.
//   * A refactorization reuses its predecessor's storage: the
//     elimination's working matrix, U's row lists and the user lists are
//     members cleared rather than reassigned, so they keep their capacity,
//     and L is one flat file (per op: pivot row, kind and a term range into
//     shared row and multiplier arrays) with no allocation per eta.
//   * Refactorization triggers on EITHER a pivot-count interval or on
//     measured nnz growth of the factors (LpStats::nnz_refactorizations
//     counts the latter), so pathological Forrest–Tomlin fill cannot
//     quietly turn the factors dense between interval boundaries.
//   * FTRAN/BTRAN are hyper-sparse: when the right-hand side is sparse,
//     the triangular solves first walk the U dependency graph (a DFS over
//     per-slot user lists) to find the positions that can become nonzero,
//     then solve only those, in pivot order. A skipped position is EXACTLY
//     zero — skipping is bit-identical to solving — so the cutover to the
//     plain dense-ordered loop on dense rhs is purely a cost decision.
//     LpStats::ftran_rows / ftran_rows_skipped measure the effect.
//
// The primal simplex prices with Dantzig's rule, switching to Bland's rule
// after kDegeneratePivotStreak consecutive degenerate pivots and reverting
// on the first pivot that makes progress.
//
// The same class hosts the dual simplex (solve_dual), a BOUNDED-VARIABLE
// dual simplex. Every column carries bounds [0, u_j] (LpProblem::upper,
// +inf when absent); a nonbasic column rests at either bound and a
// negative-cost column starts AT ITS UPPER BOUND, which makes the
// all-slack basis dual-feasible with no artificial machinery.
// Negative-cost columns with no finite user bound get a large WORKING
// bound u_j = kDualBoundScale * (1 + max |rhs|); a working bound that is
// active at the reported optimum means the true problem wanted to push
// further (often: it is unbounded), so the engine DECLINES and the primal
// path re-decides, with no extra row in any factorization.
// The leaving row is the largest bound violation, found by scanning only
// the slots a bitmap flags: a superset of the violating slots, rebuilt
// with the basic values at each refactorization, set for every slot a
// pivot moves, and cleared lazily when the scan finds a flagged slot
// feasible. The scan runs in increasing slot order with the full scan's
// comparison and tie-break, so it picks the same row.
// Each dual pivot costs what its pivot row touches. rho = e_r^T B^-1 comes
// from a hyper-sparse BTRAN; the row alpha_r = rho^T A_N is formed by
// walking only the CSR rows rho touches (plus their slacks), in increasing
// row order so every entry sums its terms exactly as a column dot product
// would. The ratio test scans the row's nonzeros alone, and the reduced
// costs are updated along it — d_j -= theta_d alpha_rj, theta_d =
// d_q / alpha_rq, d_q = 0, d_leaving = -theta_d — instead of being
// re-priced. A full pricing pass (one BTRAN of c_B and one pass over the
// columns) runs only at the start and after every refactorization, which
// bounds the update drift; dual feasibility is checked on the columns an
// update moved, and on all of them after a full pass.
// The dual ratio test is two-pass Harris over BOTH nonbasic sets (at-lower
// needs sign(alpha) opposite the violation, at-upper the same sign): pass 1
// computes the kHarrisTol-relaxed ratio bound, pass 2 takes the
// largest-|alpha| candidate inside it, and a pivot-magnitude floor
// (kStablePivotTol) declines the solve rather than admit a near-singular
// pivot into the factorization: one |alpha| just above kEps = 1e-9 can
// poison every later solve against that basis (pinned by
// sparse_simplex_test).
//
// Warm starts: solve_dual accepts an LpWarmStart carried from a previous
// solve. Dual feasibility depends only on the costs and the matrix — not
// the rhs or bounds — so a prior optimal basis prices dual-feasible under
// any rhs perturbation and the re-solve starts from (usually)
// primal-near-feasible instead of all-slack. The carried basis names
// slacks by row position, but the leaf schedule re-emits the same rows in
// an order that moves with the geometry, so rows are matched by CONTENT:
// each row's key hashes its CSR terms (rhs left out), and a sort-merge of
// (key, position) pairs maps every carried slack to its row's position
// here. The basis is accepted only if every key finds a partner, it
// factorizes nonsingular AND it prices dual-feasible; anything else falls
// back to the cold all-slack start, and LpStats::warm_declined_* records
// which check failed.
//
// The dual simplex never proves anything it cannot certify: lost dual
// feasibility, an active working bound, a vanishing pivot element or an
// iteration stall all DECLINE the solve and hand the unchanged problem to
// the primal simplex (LpStats::dual_fallbacks). A declined attempt's work
// is reported under LpStats::declined_* — the primary counters describe
// the authoritative primal solve alone.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "compact/simplex.hpp"
#include "support/error.hpp"

namespace rsg::compact::detail {

namespace {

constexpr double kEps = 1e-9;
constexpr double kPivotEps = 1e-11;
constexpr double kFeasEps = 1e-7;
constexpr int kRefactorInterval = 100;
// Dual engine: the bounded Harris tolerance of the dual ratio test — pass 1
// relaxes each candidate's reduced cost by this much to widen the pivot
// choice, pass 2 takes the largest pivot element inside the widened set.
constexpr double kHarrisTol = 1e-7;
// The dual ratio test's pivot-magnitude floor: when even the largest
// eligible |alpha| sits below this, the row is numerically parallel to
// every candidate column and pivoting would seed the factorization with a
// near-singular update — decline to the primal engine instead. Two decades
// above kEps, which is all the old single-floor test required.
constexpr double kStablePivotTol = 1e-7;
// Reduced costs below this during the dual scan mean dual feasibility was
// lost (numerically) and the engine must decline to the primal path. A
// Harris-widened pivot can legally dip a reduced cost by kHarrisTol, so
// this sits one decade looser.
constexpr double kDualFeasEps = 1e-6;
// A working bound is this multiple of (1 + max |rhs|): far above any
// compaction optimum, small enough that doubles keep ~9 digits of slack.
// The bound must be INACTIVE at the optimum for the dual's answer to be
// the true one; a basic working-bounded variable closer than
// kDualBoundSlackFrac of its bound declines to the primal engine.
constexpr double kDualBoundScale = 1e6;
constexpr double kDualBoundSlackFrac = 1e-2;
// Markowitz threshold pivoting: an entry is pivot-eligible only within
// this factor of its column's max magnitude (stability) — among eligible
// entries the lowest (r-1)*(c-1) count product wins (sparsity). The
// selection scans columns in increasing-count buckets and stops after
// kMarkowitzScanLimit candidate columns (or immediately on a zero score).
constexpr double kMarkowitzRel = 0.1;
constexpr int kMarkowitzScanLimit = 8;
// Factor entries below this are dropped as exact zeros (cancellation).
constexpr double kDropTol = 1e-12;
// Refactorize when the factors grow past kNnzGrowthFactor * fresh size +
// slack — the nnz-growth trigger that backs up the pivot-count interval.
constexpr double kNnzGrowthFactor = 2.0;
constexpr int kNnzGrowthSlack = 64;
// Hyper-sparse solves: take the graph-ordered path only when the rhs
// touches under ~30% of the rows AND the basis is big enough for the DFS
// bookkeeping to pay for itself.
constexpr int kHyperSparseMinRows = 32;
// Row content keys (LpWarmStart::row_keys): a splitmix64-style fold over a
// row's (column, coefficient bits) terms.
constexpr std::uint64_t kRowKeySeed = 0x9E3779B97F4A7C15ull;

inline std::uint64_t mix_key(std::uint64_t key, std::uint64_t word) {
  std::uint64_t z = key ^ (word + kRowKeySeed + (key << 6) + (key >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// A sparse working vector: dense values plus the list of positions written
// since the last clear, so loads, solves and resets cost O(touched) rather
// than O(m). `v` entries outside `touched` are exactly 0.0.
struct Scratch {
  std::vector<double> v;
  std::vector<int> touched;
  std::vector<char> mark;

  void init(int size) {
    v.assign(static_cast<std::size_t>(size), 0.0);
    mark.assign(static_cast<std::size_t>(size), 0);
    touched.clear();
    touched.reserve(static_cast<std::size_t>(size));
  }
  void touch(int i) {
    if (!mark[static_cast<std::size_t>(i)]) {
      mark[static_cast<std::size_t>(i)] = 1;
      touched.push_back(i);
    }
  }
  void add(int i, double x) {
    touch(i);
    v[static_cast<std::size_t>(i)] += x;
  }
  void set(int i, double x) {
    touch(i);
    v[static_cast<std::size_t>(i)] = x;
  }
  void clear() {
    for (const int i : touched) {
      v[static_cast<std::size_t>(i)] = 0.0;
      mark[static_cast<std::size_t>(i)] = 0;
    }
    touched.clear();
  }
};

// The LU-factorized basis: B = L * U up to row/column permutation, with L
// held as a file of elementary operations (column etas from factorization,
// row etas from Forrest–Tomlin updates) and U held row-wise, indexed by
// SLOT. A slot is the engine's fixed name for a basis position: slot s
// always holds basis column basis_[s], across refactorizations and
// updates; what moves is the slot's pivot row and its place in the pivot
// order. FTRAN output is slot-indexed, BTRAN output row-indexed.
//
// Every array here is a member that factorize() clears rather than
// reassigns: a refactorization reuses the capacity the previous one left.
class LuBasis {
 public:
  // Row `row` of U for one slot: diagonal entry plus the off-diagonal
  // entries (slot, value) — every off slot sits LATER in the pivot order.
  struct URow {
    int row = -1;
    double diag = 0.0;
    std::vector<std::pair<int, double>> off;
  };

  int rows() const { return m_; }
  bool growth_exceeded() const {
    return static_cast<double>(current_nnz_) >
           kNnzGrowthFactor * static_cast<double>(fresh_nnz_) + kNnzGrowthSlack;
  }

  // Markowitz-ordered factorization of the m x m basis whose column for
  // slot s is appended to an empty `entries` by load_col(s, entries)
  // ((row, value) pairs, duplicate-free). Returns false when the basis is
  // numerically singular; the factor state is unusable until the next
  // successful factorize.
  template <typename ColFn>
  bool factorize(int m, ColFn&& load_col) {
    m_ = m;
    lop_row_.clear();
    lop_is_row_.clear();
    lop_start_.assign(1, 0);
    lterm_row_.clear();
    lterm_mult_.clear();
    order_.clear();
    order_.reserve(static_cast<std::size_t>(m));
    urow_.resize(static_cast<std::size_t>(m));
    for (URow& u : urow_) {
      u.row = -1;
      u.diag = 0.0;
      u.off.clear();
    }
    pos_.assign(static_cast<std::size_t>(m), -1);
    slot_of_row_.assign(static_cast<std::size_t>(m), -1);
    clear_lists(users_, m);
    fresh_nnz_ = m;  // diagonals
    current_nnz_ = m;
    if (m == 0) return true;

    // The active working matrix: per-column entry lists (exact), per-row
    // nnz counts, and stale-tolerant row->slots lists for pivot-row walks.
    clear_lists(wcols_, m);
    clear_lists(rowlist_, m);
    row_nnz_.assign(static_cast<std::size_t>(m), 0);
    active_col_.assign(static_cast<std::size_t>(m), 1);
    // Columns bucketed by nnz; entries go stale when a column's count
    // changes or it leaves the active set, and are dropped when scanned.
    clear_lists(bucket_, m + 1);
    for (int s = 0; s < m; ++s) {
      load_col(s, wcols_[static_cast<std::size_t>(s)]);
      if (wcols_[static_cast<std::size_t>(s)].empty()) return false;
      for (const auto& [r, v] : wcols_[static_cast<std::size_t>(s)]) {
        (void)v;
        rowlist_[static_cast<std::size_t>(r)].push_back(s);
        ++row_nnz_[static_cast<std::size_t>(r)];
      }
      bucket_[wcols_[static_cast<std::size_t>(s)].size()].push_back(s);
    }
    // Dense update scratch: multipliers per row of the pivot column, and a
    // per-column "already updated" flag, both reset per use.
    mult_.assign(static_cast<std::size_t>(m), 0.0);
    hit_.assign(static_cast<std::size_t>(m), 0);

    for (int step = 0; step < m; ++step) {
      // --- pivot selection -------------------------------------------------
      int best_c = -1;
      int best_r = -1;
      double best_v = 0.0;
      long long best_score = std::numeric_limits<long long>::max();
      int scanned = 0;
      for (int count = 1; count <= m && best_score > 0; ++count) {
        auto& b = bucket_[static_cast<std::size_t>(count)];
        for (std::size_t bi = 0; bi < b.size() && best_score > 0;) {
          const int c = b[bi];
          if (!active_col_[static_cast<std::size_t>(c)] ||
              static_cast<int>(wcols_[static_cast<std::size_t>(c)].size()) != count) {
            b[bi] = b.back();
            b.pop_back();
            continue;
          }
          ++bi;
          double colmax = 0.0;
          for (const auto& [r, v] : wcols_[static_cast<std::size_t>(c)]) {
            (void)r;
            colmax = std::max(colmax, std::abs(v));
          }
          if (colmax < kPivotEps) continue;  // cannot host a pivot (yet)
          ++scanned;
          // Best entry of this column: min Markowitz score among entries
          // within the relative threshold; ties to the larger magnitude,
          // then the smaller row.
          int col_r = -1;
          double col_v = 0.0;
          long long col_score = std::numeric_limits<long long>::max();
          for (const auto& [r, v] : wcols_[static_cast<std::size_t>(c)]) {
            const double a = std::abs(v);
            if (a < kPivotEps || a < kMarkowitzRel * colmax) continue;
            const long long score =
                static_cast<long long>(row_nnz_[static_cast<std::size_t>(r)] - 1) *
                static_cast<long long>(count - 1);
            if (score < col_score || (score == col_score && (a > std::abs(col_v) ||
                                                             (a == std::abs(col_v) && r < col_r)))) {
              col_score = score;
              col_r = r;
              col_v = v;
            }
          }
          if (col_r < 0) continue;
          if (col_score < best_score || (col_score == best_score && c < best_c)) {
            best_score = col_score;
            best_c = c;
            best_r = col_r;
            best_v = col_v;
          }
        }
        if (best_c >= 0 && scanned >= kMarkowitzScanLimit) break;
      }
      if (best_c < 0) return false;  // no eligible pivot anywhere: singular
      const int c = best_c;
      const int r = best_r;
      const double pv = best_v;

      // --- record the pivot ------------------------------------------------
      pos_[static_cast<std::size_t>(c)] = static_cast<int>(order_.size());
      order_.push_back(c);
      slot_of_row_[static_cast<std::size_t>(r)] = c;
      URow& u = urow_[static_cast<std::size_t>(c)];
      u.row = r;
      u.diag = pv;

      // Column eta: the multipliers of the pivot column's other entries,
      // written straight into the L file as terms [t0, t1).
      const std::size_t t0 = lterm_row_.size();
      for (const auto& [i, v] : wcols_[static_cast<std::size_t>(c)]) {
        if (i == r) continue;
        lterm_row_.push_back(i);
        lterm_mult_.push_back(v / pv);
        --row_nnz_[static_cast<std::size_t>(i)];  // column c leaves the matrix
      }
      const std::size_t t1 = lterm_row_.size();

      // U row: walk row r's slots, harvesting (and physically removing)
      // its entries from the still-active columns.
      for (const int c2 : rowlist_[static_cast<std::size_t>(r)]) {
        if (c2 == c || !active_col_[static_cast<std::size_t>(c2)]) continue;
        auto& col2 = wcols_[static_cast<std::size_t>(c2)];
        for (std::size_t k = 0; k < col2.size(); ++k) {
          if (col2[k].first != r) continue;
          u.off.emplace_back(c2, col2[k].second);
          users_[static_cast<std::size_t>(c2)].push_back(c);
          col2[k] = col2.back();
          col2.pop_back();
          bucket_[col2.size()].push_back(c2);
          break;  // entries are duplicate-free
        }
      }
      active_col_[static_cast<std::size_t>(c)] = 0;

      // --- eliminate: submatrix -= mult (outer) u.off ----------------------
      if (t1 > t0 && !u.off.empty()) {
        for (std::size_t t = t0; t < t1; ++t) {
          mult_[static_cast<std::size_t>(lterm_row_[t])] = lterm_mult_[t];
        }
        for (const auto& [c2, uv] : u.off) {
          auto& col2 = wcols_[static_cast<std::size_t>(c2)];
          for (std::size_t k = 0; k < col2.size();) {
            const int i = col2[k].first;
            if (mult_[static_cast<std::size_t>(i)] == 0.0) {
              ++k;
              continue;
            }
            hit_[static_cast<std::size_t>(i)] = 1;
            col2[k].second -= mult_[static_cast<std::size_t>(i)] * uv;
            if (std::abs(col2[k].second) < kDropTol) {
              col2[k] = col2.back();
              col2.pop_back();
              --row_nnz_[static_cast<std::size_t>(i)];
            } else {
              ++k;
            }
          }
          // Fill: pivot-column rows this column had no entry for.
          for (std::size_t t = t0; t < t1; ++t) {
            const int i = lterm_row_[t];
            if (hit_[static_cast<std::size_t>(i)]) {
              hit_[static_cast<std::size_t>(i)] = 0;
              continue;
            }
            const double f = -lterm_mult_[t] * uv;
            if (std::abs(f) < kDropTol) continue;
            col2.emplace_back(i, f);
            rowlist_[static_cast<std::size_t>(i)].push_back(c2);
            ++row_nnz_[static_cast<std::size_t>(i)];
          }
          bucket_[std::min(col2.size(), static_cast<std::size_t>(m))].push_back(c2);
        }
        for (std::size_t t = t0; t < t1; ++t) mult_[static_cast<std::size_t>(lterm_row_[t])] = 0.0;
      }

      fresh_nnz_ += static_cast<long long>(t1 - t0 + u.off.size());
      close_l_op(r, /*row_op=*/false);
    }
    current_nnz_ = fresh_nnz_;
    return true;
  }

  // FTRAN: solves B x = a. `w` holds the row-indexed right-hand side and is
  // left holding the L-stage image L^-1 a (the Forrest–Tomlin spike — feed
  // it to update() for a pivot on this column); `x` receives the
  // slot-indexed solution. `stats` (optional) gets the hyper-sparse
  // telemetry.
  void ftran(Scratch& w, Scratch& x, LpStats* stats) {
    apply_l(w);
    if (stats) stats->ftran_rows += m_;
    if (hyper_sparse(static_cast<int>(w.touched.size()))) {
      // Mark every slot reachable from the rhs nonzeros through the user
      // lists (slot s feeds every slot whose U row references s). User
      // lists may carry stale edges from updates — those only over-mark,
      // and an over-marked position solves to an exact 0.
      for (const int r : w.touched) {
        if (w.v[static_cast<std::size_t>(r)] == 0.0) continue;
        const int s0 = slot_of_row_[static_cast<std::size_t>(r)];
        if (s0 < 0 || x.mark[static_cast<std::size_t>(s0)]) continue;
        stack_.push_back(s0);
        x.touch(s0);
        while (!stack_.empty()) {
          const int s = stack_.back();
          stack_.pop_back();
          for (const int t : users_[static_cast<std::size_t>(s)]) {
            if (!x.mark[static_cast<std::size_t>(t)]) {
              x.touch(t);
              stack_.push_back(t);
            }
          }
        }
      }
      std::sort(x.touched.begin(), x.touched.end(), [this](int a, int b) {
        return pos_[static_cast<std::size_t>(a)] > pos_[static_cast<std::size_t>(b)];
      });
      for (const int s : x.touched) {
        const URow& u = urow_[static_cast<std::size_t>(s)];
        double val = w.v[static_cast<std::size_t>(u.row)];
        for (const auto& [s2, uv] : u.off) val -= uv * x.v[static_cast<std::size_t>(s2)];
        x.v[static_cast<std::size_t>(s)] = val / u.diag;
      }
      if (stats) stats->ftran_rows_skipped += m_ - static_cast<long long>(x.touched.size());
    } else {
      for (std::size_t k = order_.size(); k-- > 0;) {
        const int s = order_[k];
        if (s < 0) continue;  // a slot an update moved to the end
        const URow& u = urow_[static_cast<std::size_t>(s)];
        double val = w.v[static_cast<std::size_t>(u.row)];
        for (const auto& [s2, uv] : u.off) val -= uv * x.v[static_cast<std::size_t>(s2)];
        if (val != 0.0) x.set(s, val / u.diag);
      }
    }
  }

  // BTRAN: solves B^T y = c. `c` holds the slot-indexed right-hand side
  // (consumed: cleared on return); `y` receives the row-indexed solution.
  void btran(Scratch& c, Scratch& y) {
    if (hyper_sparse(static_cast<int>(c.touched.size()))) {
      // Reachability along U's off edges (slot s feeds its off slots).
      reach_.clear();
      for (std::size_t ci = 0; ci < c.touched.size(); ++ci) {
        const int s0 = c.touched[ci];
        if (reach_mark_[static_cast<std::size_t>(s0)]) continue;
        reach_mark_[static_cast<std::size_t>(s0)] = 1;
        reach_.push_back(s0);
        stack_.push_back(s0);
        while (!stack_.empty()) {
          const int s = stack_.back();
          stack_.pop_back();
          for (const auto& [s2, uv] : urow_[static_cast<std::size_t>(s)].off) {
            (void)uv;
            if (!reach_mark_[static_cast<std::size_t>(s2)]) {
              reach_mark_[static_cast<std::size_t>(s2)] = 1;
              reach_.push_back(s2);
              stack_.push_back(s2);
            }
          }
        }
      }
      std::sort(reach_.begin(), reach_.end(), [this](int a, int b) {
        return pos_[static_cast<std::size_t>(a)] < pos_[static_cast<std::size_t>(b)];
      });
      for (const int s : reach_) {
        reach_mark_[static_cast<std::size_t>(s)] = 0;
        const URow& u = urow_[static_cast<std::size_t>(s)];
        const double cv = c.v[static_cast<std::size_t>(s)];
        if (cv == 0.0) continue;
        const double z = cv / u.diag;
        y.set(u.row, z);
        for (const auto& [s2, uv] : u.off) c.add(s2, -z * uv);
      }
    } else {
      for (const int s : order_) {
        if (s < 0) continue;  // a slot an update moved to the end
        const URow& u = urow_[static_cast<std::size_t>(s)];
        const double cv = c.v[static_cast<std::size_t>(s)];
        if (cv == 0.0) continue;
        const double z = cv / u.diag;
        y.set(u.row, z);
        for (const auto& [s2, uv] : u.off) c.add(s2, -z * uv);
      }
    }
    c.clear();
    // L^T, reverse order: a column eta transposes to a gather into its
    // pivot row; a row eta to a scatter out of it.
    for (std::size_t k = lop_row_.size(); k-- > 0;) {
      const std::size_t pivot_row = static_cast<std::size_t>(lop_row_[k]);
      const int begin = lop_start_[k];
      const int end = lop_start_[k + 1];
      if (lop_is_row_[k]) {
        const double yp = y.v[pivot_row];
        if (yp == 0.0) continue;
        for (int t = begin; t < end; ++t) {
          const int i = lterm_row_[static_cast<std::size_t>(t)];
          y.touch(i);
          y.v[static_cast<std::size_t>(i)] -= lterm_mult_[static_cast<std::size_t>(t)] * yp;
        }
      } else {
        double acc = 0.0;
        bool any = false;
        for (int t = begin; t < end; ++t) {
          const double yi = y.v[static_cast<std::size_t>(lterm_row_[static_cast<std::size_t>(t)])];
          if (yi != 0.0) {
            acc += lterm_mult_[static_cast<std::size_t>(t)] * yi;
            any = true;
          }
        }
        if (any) {
          y.touch(lop_row_[k]);
          y.v[pivot_row] -= acc;
        }
      }
    }
  }

  // Forrest–Tomlin update: slot p's basis column is replaced by the column
  // whose L-stage image (L^-1 a, row-indexed) is in `w` — exactly what
  // ftran() left there. Slot p moves to the end of the pivot order, its
  // old pivot ROW is eliminated against the rows in between (appending one
  // row eta), and the new diagonal is what remains. Returns false when
  // that diagonal vanishes — the caller must refactorize.
  bool update(int p, Scratch& w) {
    const int kp = pos_[static_cast<std::size_t>(p)];
    const int R = urow_[static_cast<std::size_t>(p)].row;

    // Remove the old column p from the rows that referenced it.
    for (const int t : users_[static_cast<std::size_t>(p)]) {
      auto& off = urow_[static_cast<std::size_t>(t)].off;
      for (std::size_t k = 0; k < off.size(); ++k) {
        if (off[k].first == p) {
          off[k] = off.back();
          off.pop_back();
          --current_nnz_;
          break;
        }
      }
    }
    users_[static_cast<std::size_t>(p)].clear();

    // Move slot p to the last pivot position BEFORE seeding the
    // elimination heap: every heap key — seed and fill alike — must be a
    // post-move position, or the min-heap can pop slots out of pivot
    // order and fold fill into an already-eliminated slot, silently
    // corrupting U (the drift then surfaces pivots later as an
    // infeasible "optimum"). The move is O(1): p takes a fresh position
    // past every other and leaves a tombstone (-1) at its old one, which
    // the dense solves skip. Positions are only ever compared — by the
    // heap, the hyper-sparse sorts and the dense solves' visiting order —
    // and no other slot's position changes, so all of them see p last and
    // every other slot in its old relative order.
    order_[static_cast<std::size_t>(kp)] = -1;
    pos_[static_cast<std::size_t>(p)] = static_cast<int>(order_.size());
    order_.push_back(p);

    // The old row R's entries are about to be eliminated; they seed the
    // accumulator. (Their user-list edges go stale — tolerated.)
    acc_.clear();
    while (!heap_.empty()) heap_.pop();
    for (const auto& [s2, uv] : urow_[static_cast<std::size_t>(p)].off) {
      acc_.set(s2, uv);
      heap_.emplace(pos_[static_cast<std::size_t>(s2)], s2);
      --current_nnz_;
    }
    urow_[static_cast<std::size_t>(p)].off.clear();

    // Spike: the new column's entries land in U at column p. Rows other
    // than R keep their position; the R entry is the prospective diagonal.
    double diag = w.v[static_cast<std::size_t>(R)];
    for (const int r : w.touched) {
      if (r == R) continue;
      const double v = w.v[static_cast<std::size_t>(r)];
      if (std::abs(v) < kDropTol) continue;
      const int t = slot_of_row_[static_cast<std::size_t>(r)];
      urow_[static_cast<std::size_t>(t)].off.emplace_back(p, v);
      users_[static_cast<std::size_t>(p)].push_back(t);
      ++current_nnz_;
    }

    // Eliminate row R in pivot order, appending the row eta's terms to the
    // L file. Fill lands only at LATER positions (off edges point
    // forward), so each slot pops at most once.
    const std::size_t t0 = lterm_row_.size();
    while (!heap_.empty()) {
      const int s = heap_.top().second;
      heap_.pop();
      const double val = acc_.v[static_cast<std::size_t>(s)];
      if (std::abs(val) < kDropTol) continue;
      const URow& u = urow_[static_cast<std::size_t>(s)];
      const double mv = val / u.diag;
      lterm_row_.push_back(u.row);
      lterm_mult_.push_back(mv);
      for (const auto& [s2, uv] : u.off) {
        if (s2 == p) {
          diag -= mv * uv;
        } else {
          if (!acc_.mark[static_cast<std::size_t>(s2)]) {
            heap_.emplace(pos_[static_cast<std::size_t>(s2)], s2);
          }
          acc_.add(s2, -mv * uv);
        }
      }
    }
    acc_.clear();
    if (std::abs(diag) < kPivotEps) {
      lterm_row_.resize(t0);  // drop the unfinished row eta
      lterm_mult_.resize(t0);
      return false;
    }
    urow_[static_cast<std::size_t>(p)].row = R;
    urow_[static_cast<std::size_t>(p)].diag = diag;
    current_nnz_ += static_cast<long long>(lterm_row_.size() - t0);
    close_l_op(R, /*row_op=*/true);
    return true;
  }

  void init_scratch(int m) {
    acc_.init(m);
    reach_mark_.assign(static_cast<std::size_t>(m), 0);
    reach_.reserve(static_cast<std::size_t>(m));
    stack_.reserve(static_cast<std::size_t>(m));
  }

 private:
  bool hyper_sparse(int touched) const {
    return m_ >= kHyperSparseMinRows && touched * 10 < m_ * 3;
  }

  // `size` empty lists, each keeping the capacity it had.
  template <typename T>
  static void clear_lists(std::vector<std::vector<T>>& lists, int size) {
    lists.resize(static_cast<std::size_t>(size));
    for (std::vector<T>& list : lists) list.clear();
  }

  // Closes one L op over the terms appended since the last op closed; an
  // op with no terms is dropped.
  void close_l_op(int pivot_row, bool row_op) {
    if (static_cast<int>(lterm_row_.size()) == lop_start_.back()) return;
    lop_row_.push_back(pivot_row);
    lop_is_row_.push_back(row_op ? 1 : 0);
    lop_start_.push_back(static_cast<int>(lterm_row_.size()));
  }

  // w = L^-1 w: the L file in order, each op's terms in order.
  void apply_l(Scratch& w) const {
    for (std::size_t k = 0; k < lop_row_.size(); ++k) {
      const std::size_t pivot_row = static_cast<std::size_t>(lop_row_[k]);
      const int begin = lop_start_[k];
      const int end = lop_start_[k + 1];
      if (lop_is_row_[k]) {
        double acc = 0.0;
        bool any = false;
        for (int t = begin; t < end; ++t) {
          const double wi = w.v[static_cast<std::size_t>(lterm_row_[static_cast<std::size_t>(t)])];
          if (wi != 0.0) {
            acc += lterm_mult_[static_cast<std::size_t>(t)] * wi;
            any = true;
          }
        }
        if (any) {
          w.touch(lop_row_[k]);
          w.v[pivot_row] -= acc;
        }
      } else {
        const double wp = w.v[pivot_row];
        if (wp == 0.0) continue;
        for (int t = begin; t < end; ++t) {
          const int i = lterm_row_[static_cast<std::size_t>(t)];
          w.touch(i);
          w.v[static_cast<std::size_t>(i)] -= lterm_mult_[static_cast<std::size_t>(t)] * wp;
        }
      }
    }
  }

  int m_ = 0;
  // The L file, flat. Op k has pivot row lop_row_[k], is a row eta
  // (Forrest–Tomlin) when lop_is_row_[k] and a column eta (factorization)
  // otherwise, and owns terms [lop_start_[k], lop_start_[k + 1]) of
  // lterm_row_ / lterm_mult_. Applied to a row-indexed vector w:
  //   column eta:  w[i] -= mult_i * w[pivot_row]  per term
  //   row eta:     w[pivot_row] -= sum mult_i * w[i]
  std::vector<int> lop_row_;
  std::vector<char> lop_is_row_;
  std::vector<int> lop_start_;
  std::vector<int> lterm_row_;
  std::vector<double> lterm_mult_;
  std::vector<URow> urow_;       // slot -> its U row
  // Pivot order: position -> slot, -1 at a position an update vacated.
  std::vector<int> order_;
  std::vector<int> pos_;         // slot -> position (increasing = later)
  std::vector<int> slot_of_row_; // pivot row -> slot
  // users_[s]: slots whose U row references slot s (stale-edge tolerant;
  // rebuilt exactly at factorize, appended-to by update).
  std::vector<std::vector<int>> users_;
  long long fresh_nnz_ = 0;
  long long current_nnz_ = 0;

  // factorize()'s working matrix, kept between calls for its capacity.
  std::vector<std::vector<std::pair<int, double>>> wcols_;
  std::vector<std::vector<int>> rowlist_;
  std::vector<int> row_nnz_;
  std::vector<char> active_col_;
  std::vector<std::vector<int>> bucket_;
  std::vector<double> mult_;
  std::vector<char> hit_;

  Scratch acc_;  // FT row-elimination accumulator (slot-indexed)
  std::priority_queue<std::pair<int, int>, std::vector<std::pair<int, int>>,
                      std::greater<std::pair<int, int>>>
      heap_;
  std::vector<int> stack_;
  std::vector<int> reach_;
  std::vector<char> reach_mark_;
};

class RevisedSimplex {
 public:
  // `dual_start` selects the dual simplex's layout: no row normalization
  // (the slack basis starts at x_B = b, negative entries and all), no
  // artificials, and native [0, u] variable bounds.
  explicit RevisedSimplex(const LpProblem& problem, bool dual_start = false)
      : dual_(dual_start),
        m_(static_cast<int>(problem.constraints.size())),
        n_(problem.num_vars) {
    // Row normalization (primal only): rows with negative rhs are negated
    // so the initial rhs is nonnegative; those rows carry an artificial
    // (their negated slack cannot be basic at a feasible value). The dual
    // start keeps rows as-is — a negative basic value is exactly what its
    // iteration repairs.
    artificial_row_.clear();
    for (const LpConstraint& c : problem.constraints) {
      max_abs_rhs_ = std::max(max_abs_rhs_, std::abs(c.rhs));
    }
    sign_.assign(static_cast<std::size_t>(m_), 1.0);
    b_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const double rhs = problem.constraints[static_cast<std::size_t>(i)].rhs;
      if (!dual_ && rhs < -kEps) {
        sign_[static_cast<std::size_t>(i)] = -1.0;
        artificial_row_.push_back(i);
      }
      b_[static_cast<std::size_t>(i)] = sign_[static_cast<std::size_t>(i)] * rhs;
    }
    num_artificial_ = static_cast<int>(artificial_row_.size());
    num_cols_ = n_ + m_ + num_artificial_;

    // CSC for the structural columns, with the row signs folded in.
    // Duplicate (row, var) terms are accumulated (their coefficients sum).
    std::vector<std::vector<std::pair<int, double>>> cols(static_cast<std::size_t>(n_));
    for (int i = 0; i < m_; ++i) {
      const LpConstraint& c = problem.constraints[static_cast<std::size_t>(i)];
      for (const auto& [var, coeff] : c.terms) {
        if (var < 0 || var >= n_) throw Error("simplex: variable index out of range");
        auto& col = cols[static_cast<std::size_t>(var)];
        if (!col.empty() && col.back().first == i) {
          col.back().second += sign_[static_cast<std::size_t>(i)] * coeff;
        } else {
          col.emplace_back(i, sign_[static_cast<std::size_t>(i)] * coeff);
        }
      }
    }
    col_start_.assign(static_cast<std::size_t>(n_) + 1, 0);
    std::size_t nnz = 0;
    for (int j = 0; j < n_; ++j) nnz += cols[static_cast<std::size_t>(j)].size();
    row_idx_.reserve(nnz);
    val_.reserve(nnz);
    for (int j = 0; j < n_; ++j) {
      col_start_[static_cast<std::size_t>(j)] = static_cast<int>(row_idx_.size());
      for (const auto& [row, value] : cols[static_cast<std::size_t>(j)]) {
        row_idx_.push_back(row);
        val_.push_back(value);
      }
    }
    col_start_[static_cast<std::size_t>(n_)] = static_cast<int>(row_idx_.size());

    // Initial basis: the artificial on negated rows, the slack elsewhere.
    basis_.assign(static_cast<std::size_t>(m_), -1);
    in_basis_.assign(static_cast<std::size_t>(num_cols_), 0);
    artificial_of_row_.assign(static_cast<std::size_t>(m_), -1);
    for (int k = 0; k < num_artificial_; ++k) {
      artificial_of_row_[static_cast<std::size_t>(artificial_row_[static_cast<std::size_t>(k)])] =
          n_ + m_ + k;
    }
    for (int i = 0; i < m_; ++i) {
      const int art = artificial_of_row_[static_cast<std::size_t>(i)];
      basis_[static_cast<std::size_t>(i)] = art >= 0 ? art : n_ + i;
      in_basis_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] = 1;
    }
    x_basic_.assign(static_cast<std::size_t>(m_), 0.0);
    at_upper_.assign(static_cast<std::size_t>(num_cols_), 0);
    upper_.assign(static_cast<std::size_t>(num_cols_),
                  std::numeric_limits<double>::infinity());
    working_.assign(static_cast<std::size_t>(num_cols_), 0);
    spike_.init(m_);
    alpha_.init(m_);
    pr_in_.init(m_);
    pr_out_.init(m_);
    lu_.init_scratch(m_);
    if (dual_) {
      build_rows();
      d_.assign(static_cast<std::size_t>(num_cols_), 0.0);
      prow_.init(n_ + m_);
      upper_basic_.assign(static_cast<std::size_t>(m_), std::numeric_limits<double>::infinity());
      violated_.assign((static_cast<std::size_t>(m_) + 63) / 64, 0);
    }
  }

  // Resets every field of a (possibly reused) LpSolution to its
  // default-constructed state, so no exit path can leak a previous solve's
  // x / objective / flags — the _into API's contract.
  static void reset(LpSolution& solution) {
    solution.feasible = false;
    solution.bounded = true;
    solution.x.clear();
    solution.objective = 0.0;
    solution.stats = LpStats{};
  }

  // Runs both primal phases; fills `solution`. Entry resets the whole
  // solution (stats included) so a reused LpSolution (or engine) never
  // accumulates counters or carries stale fields across solves.
  void solve(const LpProblem& problem, LpSolution& solution) {
    reset(solution);
    if (!refactorize(solution.stats)) {
      throw Error("simplex: singular basis during refactorization");
    }
    --solution.stats.refactorizations;  // the trivial identity factorization
    if (num_artificial_ > 0) {
      std::vector<double> phase1(static_cast<std::size_t>(num_cols_), 0.0);
      for (int j = n_ + m_; j < num_cols_; ++j) phase1[static_cast<std::size_t>(j)] = 1.0;
      if (!minimize(phase1, solution.stats)) {
        throw Error("simplex: phase 1 unbounded (bug)");
      }
      // Every pivot so far belongs to phase 1 — recorded BEFORE the
      // feasibility verdict so an infeasible solve attributes its work
      // correctly, then refreshed after the expel pivots.
      solution.stats.phase1_pivots = solution.stats.iterations;
      double artificial_sum = 0.0;
      for (int i = 0; i < m_; ++i) {
        if (basis_[static_cast<std::size_t>(i)] >= n_ + m_) {
          artificial_sum += x_basic_[static_cast<std::size_t>(i)];
        }
      }
      if (artificial_sum > kFeasEps) {
        solution.feasible = false;
        return;
      }
      expel_artificials(solution.stats);
      solution.stats.phase1_pivots = solution.stats.iterations;
    }

    std::vector<double> phase2(static_cast<std::size_t>(num_cols_), 0.0);
    for (int j = 0; j < n_; ++j) {
      phase2[static_cast<std::size_t>(j)] = problem.objective[static_cast<std::size_t>(j)];
    }
    if (!minimize(phase2, solution.stats)) {
      solution.feasible = true;
      solution.bounded = false;
      return;
    }
    extract(problem, solution);
  }

  // The dual simplex iteration. Returns true when `solution` is
  // authoritative (optimal, or infeasibility certified with no working
  // bounds in play); false when the engine DECLINES — dual feasibility
  // lost, a working bound active at the optimum, vanishing pivot, or
  // stall — and the caller must rerun the unchanged problem through the
  // primal path. Stats are reset at entry either way; on decline they
  // carry the dual's spent work so the fallback can report it under the
  // declined_* counters. On success, `warm` (if given) receives the final
  // basis for the next solve over the same rows.
  bool solve_dual(const LpProblem& problem, LpSolution& solution, LpWarmStart* warm) {
    reset(solution);
    std::vector<double> costs(static_cast<std::size_t>(num_cols_), 0.0);
    for (int j = 0; j < n_; ++j) {
      costs[static_cast<std::size_t>(j)] = problem.objective[static_cast<std::size_t>(j)];
    }

    // Bounds: the user's where finite, a working bound on every
    // negative-cost column left unbounded — resting such a column at its
    // (finite) upper bound is what makes the start dual-feasible.
    const double working_rhs = kDualBoundScale * (1.0 + max_abs_rhs_);
    bool have_working = false;
    for (int j = 0; j < n_; ++j) {
      if (!problem.upper.empty()) {
        upper_[static_cast<std::size_t>(j)] = problem.upper[static_cast<std::size_t>(j)];
      }
      if (costs[static_cast<std::size_t>(j)] < -kEps &&
          upper_[static_cast<std::size_t>(j)] == std::numeric_limits<double>::infinity()) {
        upper_[static_cast<std::size_t>(j)] = working_rhs;
        working_[static_cast<std::size_t>(j)] = 1;
        have_working = true;
      }
    }

    if (!try_warm_start(warm, costs, solution.stats)) {
      // Cold all-slack start: negative-cost columns at their upper bound,
      // everything else at zero — dual-feasible by construction.
      for (int i = 0; i < m_; ++i) basis_[static_cast<std::size_t>(i)] = n_ + i;
      std::fill(in_basis_.begin(), in_basis_.end(), 0);
      for (int i = 0; i < m_; ++i) in_basis_[static_cast<std::size_t>(n_ + i)] = 1;
      for (int j = 0; j < num_cols_; ++j) {
        at_upper_[static_cast<std::size_t>(j)] =
            (j < n_ && costs[static_cast<std::size_t>(j)] < -kEps) ? 1 : 0;
      }
      if (!refactorize(solution.stats)) return false;  // cannot happen: identity
      --solution.stats.refactorizations;  // the trivial identity factorization
      price(costs);
    }

    int degenerate_streak = 0;
    bool bland = false;
    // Dual feasibility is checked where reduced costs moved: every column
    // after a full pricing pass, the pivot row's columns after an update.
    // Both checks run only once a leaving row exists, like the pricing
    // they stand in for.
    bool recheck_all = false;
    recheck_.clear();
    struct Candidate {
      int col;
      double alpha;  // pivot-row entry (sign as computed)
      double ratio;  // |d| / |alpha|
    };
    std::vector<Candidate> candidates;
    for (int guard = 0; guard < 200000; ++guard) {
      // Leaving row: largest bound violation — below zero or above upper —
      // the dual analogue of Dantzig pricing; ties to the lowest basis
      // index for determinism. Only the slots flagged in violated_ can
      // violate, so the scan visits those alone, in increasing slot order
      // as a full scan would, and unflags each one it finds feasible.
      int r = -1;
      bool upper_leave = false;
      double best_viol = kFeasEps;
      for (std::size_t word = 0; word < violated_.size(); ++word) {
        for (std::uint64_t bits = violated_[word]; bits != 0; bits &= bits - 1) {
          const int bit = std::countr_zero(bits);
          const int i = static_cast<int>(word * 64) + bit;
          const double v = x_basic_[static_cast<std::size_t>(i)];
          const double u = upper_basic_[static_cast<std::size_t>(i)];
          double viol;
          bool from_upper;
          if (v < 0.0) {
            viol = -v;
            from_upper = false;
          } else if (v > u) {
            viol = v - u;
            from_upper = true;
          } else {
            violated_[word] &= ~(std::uint64_t{1} << bit);
            continue;
          }
          if (viol > best_viol + kEps ||
              (viol > best_viol - kEps && r >= 0 &&
               basis_[static_cast<std::size_t>(i)] < basis_[static_cast<std::size_t>(r)])) {
            best_viol = std::max(best_viol, viol);
            r = i;
            upper_leave = from_upper;
          }
        }
      }
      if (r < 0) {
        // Primal feasible + dual feasible = optimal — unless a working
        // bound carried the optimum, in which case the answer belongs to
        // the primal engine.
        if (have_working && working_bound_active()) return false;
        extract_dual(problem, solution);
        save_warm(warm);
        return true;
      }

      if (recheck_all) {
        for (int j = 0; j < n_ + m_; ++j) {
          if (!in_basis_[static_cast<std::size_t>(j)] && !dual_feasible(j)) return false;
        }
        recheck_all = false;
      } else {
        for (const int j : recheck_) {
          if (!in_basis_[static_cast<std::size_t>(j)] && !dual_feasible(j)) return false;
        }
      }
      recheck_.clear();

      // The pivot row alpha_r over the nonbasic columns rho = e_r B^-1 reaches.
      pr_in_.set(r, 1.0);
      lu_.btran(pr_in_, pr_out_);
      form_pivot_row();

      // Bounded-variable dual ratio test. e is the signed violation. An
      // at-lower column enters by INCREASING from 0 (x_B -= t B^-1 a_q),
      // so driving x_B[r] onto its bound needs t = e / alpha >= 0, i.e.
      // e and alpha share a sign; an at-upper column enters by DECREASING
      // from its bound (x_B += t B^-1 a_q), needing t = -e / alpha >= 0,
      // i.e. opposite signs. Both give the uniform ratio |d| / |alpha|.
      const double e = upper_leave ? x_basic_[static_cast<std::size_t>(r)] -
                                         upper_basic_[static_cast<std::size_t>(r)]
                                   : x_basic_[static_cast<std::size_t>(r)];
      candidates.clear();
      double limit = std::numeric_limits<double>::infinity();
      double exact_min = std::numeric_limits<double>::infinity();
      for (const int j : prow_.touched) {
        const double alpha = prow_.v[static_cast<std::size_t>(j)];
        const bool up = at_upper_[static_cast<std::size_t>(j)] != 0;
        const bool eligible = up ? e * alpha < -kEps : e * alpha > kEps;
        if (!eligible) continue;
        // At-lower needs d >= 0, at-upper d <= 0; clamp the roundoff.
        const double d = up ? std::min(d_[static_cast<std::size_t>(j)], 0.0)
                            : std::max(d_[static_cast<std::size_t>(j)], 0.0);
        const double mag = std::abs(alpha);
        const double ratio = std::abs(d) / mag;
        candidates.push_back({j, alpha, ratio});
        // Pass 1 (Harris): the relaxed bound every admitted pivot must
        // respect — no candidate's reduced cost may overshoot by more
        // than kHarrisTol.
        limit = std::min(limit, (std::abs(d) + kHarrisTol) / mag);
        exact_min = std::min(exact_min, ratio);
      }
      if (candidates.empty()) {
        // The row certifies primal infeasibility (a dual ray) — but only
        // when no working bound could have absorbed the ray: with working
        // bounds in play the primal engine re-decides.
        prow_.clear();
        if (have_working) return false;
        solution.feasible = false;
        return true;
      }

      // Pass 2 (Harris): inside the relaxed set take the largest pivot
      // element — numerical stability over textbook minimality; under the
      // anti-cycling fallback, the lowest column index inside the EXACT
      // minimal-ratio set. Both choices are independent of scan order.
      int entering = -1;
      double best_alpha = 0.0;
      for (const Candidate& c : candidates) {
        if (bland) {
          if (c.ratio <= exact_min + kEps && (entering < 0 || c.col < entering)) {
            entering = c.col;
          }
          continue;
        }
        const double mag = std::abs(c.alpha);
        if (c.ratio <= limit &&
            (entering < 0 || mag > best_alpha || (mag == best_alpha && c.col < entering))) {
          entering = c.col;
          best_alpha = mag;
        }
      }
      if (entering < 0 || (!bland && best_alpha < kStablePivotTol)) {
        // Every admissible pivot is numerically parallel to the leaving
        // row; updating the factorization with one would seed it with a
        // near-singular spike. Decline — the primal engine re-solves from
        // scratch.
        prow_.clear();
        return false;
      }
      const double theta = exact_min;  // the dual step length

      // FTRAN the entering column and cross-check the pivot element the
      // pivot row promised: a vanished or flipped pivot is numerical
      // trouble; decline.
      const bool entering_up = at_upper_[static_cast<std::size_t>(entering)] != 0;
      const double alpha_row = prow_.v[static_cast<std::size_t>(entering)];
      load_column(entering, spike_);
      lu_.ftran(spike_, alpha_, &solution.stats);
      const double a_rq = alpha_.v[static_cast<std::size_t>(r)];
      if (std::abs(a_rq) < kStablePivotTol || a_rq * alpha_row <= 0.0) {
        spike_.clear();
        alpha_.clear();
        prow_.clear();
        return false;
      }

      // Step: drive x_B[r] exactly onto its violated bound. An at-lower
      // entering column increases from 0 by t; an at-upper one decreases
      // from its bound by t — both t >= 0 up to roundoff. Every slot whose
      // value moves is flagged for the next leaving-row scan.
      const double t = entering_up ? -e / a_rq : e / a_rq;
      const double dir = entering_up ? 1.0 : -1.0;
      for (const int i : alpha_.touched) {
        if (i == r) continue;
        double& xv = x_basic_[static_cast<std::size_t>(i)];
        xv += dir * t * alpha_.v[static_cast<std::size_t>(i)];
        if (xv < 0.0 && xv > -kFeasEps) xv = 0.0;
        const double u = upper_basic_[static_cast<std::size_t>(i)];
        if (xv > u && xv < u + kFeasEps) xv = u;
        flag_violated(i);
      }
      double enter_val = entering_up ? upper_[static_cast<std::size_t>(entering)] - t : t;
      if (enter_val < 0.0 && enter_val > -kFeasEps) enter_val = 0.0;

      // Reduced costs along the pivot row: d_j -= theta_d alpha_rj, with
      // theta_d = d_q / alpha_rq; the entering column's d becomes 0 and the
      // leaving column's -theta_d (its pivot-row entry is 1).
      const int leaving = basis_[static_cast<std::size_t>(r)];
      const double theta_d = d_[static_cast<std::size_t>(entering)] / alpha_row;
      for (const int j : prow_.touched) {
        if (j == entering) continue;
        d_[static_cast<std::size_t>(j)] -= theta_d * prow_.v[static_cast<std::size_t>(j)];
        recheck_.push_back(j);
      }
      prow_.clear();
      d_[static_cast<std::size_t>(entering)] = 0.0;
      d_[static_cast<std::size_t>(leaving)] = -theta_d;
      recheck_.push_back(leaving);

      // The leaving column exits at the bound it violated.
      in_basis_[static_cast<std::size_t>(leaving)] = 0;
      at_upper_[static_cast<std::size_t>(leaving)] = upper_leave ? 1 : 0;
      in_basis_[static_cast<std::size_t>(entering)] = 1;
      at_upper_[static_cast<std::size_t>(entering)] = 0;
      basis_[static_cast<std::size_t>(r)] = entering;
      upper_basic_[static_cast<std::size_t>(r)] = upper_[static_cast<std::size_t>(entering)];
      x_basic_[static_cast<std::size_t>(r)] = enter_val;
      flag_violated(r);

      ++solution.stats.iterations;
      ++solution.stats.dual_pivots;
      if (bland) ++solution.stats.bland_pivots;
      const bool lu_ok = lu_.update(r, spike_);
      spike_.clear();
      alpha_.clear();
      ++pivots_since_refactor_;
      if (!lu_ok || pivots_since_refactor_ >= kRefactorInterval || lu_.growth_exceeded()) {
        if (lu_ok && pivots_since_refactor_ < kRefactorInterval) {
          ++solution.stats.nnz_refactorizations;
        }
        if (!refactorize(solution.stats)) return false;  // singular: decline
        price(costs);
        recheck_all = true;
      }
      if (theta <= kEps) {
        ++solution.stats.degenerate_pivots;
        if (++degenerate_streak >= kDegeneratePivotStreak) bland = true;
      } else {
        degenerate_streak = 0;
        bland = false;
      }
    }
    return false;  // stall: let the primal engine finish rather than throw
  }

 private:
  // Rebuilds the structural solution vector and its objective value from
  // the basic values (the primal exit; nonbasic columns sit at zero).
  void extract(const LpProblem& problem, LpSolution& solution) const {
    solution.feasible = true;
    solution.x.assign(static_cast<std::size_t>(n_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int j = basis_[static_cast<std::size_t>(i)];
      if (j < n_) {
        solution.x[static_cast<std::size_t>(j)] =
            std::max(0.0, x_basic_[static_cast<std::size_t>(i)]);
      }
    }
    solution.objective = 0.0;
    for (int j = 0; j < n_; ++j) {
      solution.objective +=
          problem.objective[static_cast<std::size_t>(j)] * solution.x[static_cast<std::size_t>(j)];
    }
  }

  // The dual exit: nonbasic columns sit at whichever bound their status
  // says; basic values are clamped into their (finite) box by kFeasEps.
  void extract_dual(const LpProblem& problem, LpSolution& solution) const {
    solution.feasible = true;
    solution.bounded = true;
    solution.x.assign(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      if (!in_basis_[static_cast<std::size_t>(j)] && at_upper_[static_cast<std::size_t>(j)]) {
        solution.x[static_cast<std::size_t>(j)] = upper_[static_cast<std::size_t>(j)];
      }
    }
    for (int i = 0; i < m_; ++i) {
      const int j = basis_[static_cast<std::size_t>(i)];
      if (j >= n_) continue;
      double v = std::max(0.0, x_basic_[static_cast<std::size_t>(i)]);
      v = std::min(v, upper_[static_cast<std::size_t>(j)]);
      solution.x[static_cast<std::size_t>(j)] = v;
    }
    solution.objective = 0.0;
    for (int j = 0; j < n_; ++j) {
      solution.objective +=
          problem.objective[static_cast<std::size_t>(j)] * solution.x[static_cast<std::size_t>(j)];
    }
  }

  // True when a WORKING bound constrains the reported optimum: a basic
  // working column within kDualBoundSlackFrac of it, or a nonbasic one
  // resting at it. The real problem wanted to push further (often: it is
  // unbounded), so the primal engine must re-decide. One pass over the
  // slots and one over the columns: O(n + m).
  bool working_bound_active() const {
    for (int i = 0; i < m_; ++i) {
      const int j = basis_[static_cast<std::size_t>(i)];
      if (j < n_ && working_[static_cast<std::size_t>(j)] &&
          x_basic_[static_cast<std::size_t>(i)] >
              (1.0 - kDualBoundSlackFrac) * upper_[static_cast<std::size_t>(j)]) {
        return true;
      }
    }
    for (int j = 0; j < n_; ++j) {
      if (working_[static_cast<std::size_t>(j)] && !in_basis_[static_cast<std::size_t>(j)] &&
          at_upper_[static_cast<std::size_t>(j)]) {
        return true;
      }
    }
    return false;
  }

  // Adopts a carried LpWarmStart when its rows match this problem's by
  // content and the basis both factorizes and prices dual-feasible; the
  // adopting pricing pass leaves the reduced costs ready for the main loop.
  // Returns false (leaving the engine ready for a cold start) otherwise and
  // counts the reason: rows (a different shape, or a row with no partner),
  // singular, or dual. `warm_attempted` counts handles of matching shape;
  // `warm_accepted` the adoptions.
  bool try_warm_start(const LpWarmStart* warm, const std::vector<double>& costs, LpStats& stats) {
    if (warm == nullptr || !warm->valid()) return false;
    if (warm->num_vars != n_ || static_cast<int>(warm->row_keys.size()) != m_ ||
        static_cast<int>(warm->at_upper.size()) != num_cols_) {
      ++stats.warm_declined_rows;
      return false;
    }
    ++stats.warm_attempted;
    // The carried basis names slacks by row position. A reordered emission
    // moves each slack to its row's new position; structural columns keep
    // their index.
    const std::vector<int> new_row = match_rows(warm->row_keys);
    if (new_row.empty()) {
      ++stats.warm_declined_rows;
      return false;
    }
    const auto mapped = [&](int j) {
      return j < n_ ? j : n_ + new_row[static_cast<std::size_t>(j - n_)];
    };
    std::fill(in_basis_.begin(), in_basis_.end(), 0);
    for (int s = 0; s < m_; ++s) {
      const int carried = warm->basis[static_cast<std::size_t>(s)];
      const int j = carried < 0 || carried >= num_cols_ ? -1 : mapped(carried);
      if (j < 0 || in_basis_[static_cast<std::size_t>(j)]) {
        ++stats.warm_declined_singular;  // a column named twice, or none
        return false;
      }
      basis_[static_cast<std::size_t>(s)] = j;
      in_basis_[static_cast<std::size_t>(j)] = 1;
    }
    for (int carried = 0; carried < num_cols_; ++carried) {
      const int j = mapped(carried);
      const bool up = warm->at_upper[static_cast<std::size_t>(carried)] != 0;
      at_upper_[static_cast<std::size_t>(j)] = up && !in_basis_[static_cast<std::size_t>(j)];
      // A carried at-upper status needs a finite bound to rest on; losing
      // the bound (a cost flipped sign between rounds) voids the basis.
      if (at_upper_[static_cast<std::size_t>(j)] &&
          upper_[static_cast<std::size_t>(j)] == std::numeric_limits<double>::infinity()) {
        ++stats.warm_declined_dual;
        return false;
      }
    }
    if (!refactorize(stats)) {
      ++stats.warm_declined_singular;
      return false;
    }
    // Dual feasibility of the carried basis under THIS round's costs.
    price(costs);
    for (int j = 0; j < n_ + m_; ++j) {
      if (!in_basis_[static_cast<std::size_t>(j)] && !dual_feasible(j)) {
        ++stats.warm_declined_dual;
        return false;
      }
    }
    ++stats.warm_accepted;
    return true;
  }

  // Carried row position -> this problem's row position. Both key lists
  // are sorted as (key, position) pairs and merged, so rows with equal keys
  // pair up in position order. Empty when some key has no partner.
  std::vector<int> match_rows(const std::vector<std::uint64_t>& carried) const {
    std::vector<std::pair<std::uint64_t, int>> from(static_cast<std::size_t>(m_));
    std::vector<std::pair<std::uint64_t, int>> to(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      from[static_cast<std::size_t>(i)] = {carried[static_cast<std::size_t>(i)], i};
      to[static_cast<std::size_t>(i)] = {row_keys_[static_cast<std::size_t>(i)], i};
    }
    std::sort(from.begin(), from.end());
    std::sort(to.begin(), to.end());
    std::vector<int> new_row(static_cast<std::size_t>(m_));
    for (std::size_t k = 0; k < from.size(); ++k) {
      if (from[k].first != to[k].first) return {};
      new_row[static_cast<std::size_t>(from[k].second)] = to[k].second;
    }
    return new_row;
  }

  void save_warm(LpWarmStart* warm) const {
    if (warm == nullptr) return;
    warm->basis = basis_;
    warm->at_upper.assign(at_upper_.begin(), at_upper_.end());
    warm->row_keys = row_keys_;
    warm->num_vars = n_;
  }

  // --- dual pricing --------------------------------------------------------

  // The dual engine's row-wise (CSR) copy of the structural matrix: the
  // CSC transposed, so a row lists its columns in increasing order with
  // the CSC's merged values. Also one content key per row, hashed from
  // those terms without the rhs (duals do not depend on it): the identity
  // LpWarmStart matches rows by.
  void build_rows() {
    row_start_.assign(static_cast<std::size_t>(m_) + 1, 0);
    for (const int i : row_idx_) ++row_start_[static_cast<std::size_t>(i) + 1];
    for (int i = 0; i < m_; ++i) {
      row_start_[static_cast<std::size_t>(i) + 1] += row_start_[static_cast<std::size_t>(i)];
    }
    csr_col_.resize(row_idx_.size());
    csr_val_.resize(row_idx_.size());
    std::vector<int> next(row_start_.begin(), row_start_.end() - 1);
    for (int j = 0; j < n_; ++j) {
      for (int k = col_start_[static_cast<std::size_t>(j)];
           k < col_start_[static_cast<std::size_t>(j) + 1]; ++k) {
        const int at = next[static_cast<std::size_t>(row_idx_[static_cast<std::size_t>(k)])]++;
        csr_col_[static_cast<std::size_t>(at)] = j;
        csr_val_[static_cast<std::size_t>(at)] = val_[static_cast<std::size_t>(k)];
      }
    }
    row_keys_.assign(static_cast<std::size_t>(m_), 0);
    for (int i = 0; i < m_; ++i) {
      std::uint64_t key = kRowKeySeed;
      for (int k = row_start_[static_cast<std::size_t>(i)];
           k < row_start_[static_cast<std::size_t>(i) + 1]; ++k) {
        const double v = csr_val_[static_cast<std::size_t>(k)];
        key = mix_key(key, static_cast<std::uint64_t>(csr_col_[static_cast<std::size_t>(k)]));
        key = mix_key(key, std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
      }
      row_keys_[static_cast<std::size_t>(i)] = key;
    }
  }

  // d_j = c_j - y . a_j for every nonbasic column, y = c_B B^-1 from one
  // BTRAN: the fresh pricing the per-pivot updates start from.
  void price(const std::vector<double>& costs) {
    for (int i = 0; i < m_; ++i) {
      const double cb = costs[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
      if (cb != 0.0) pr_in_.set(i, cb);
    }
    lu_.btran(pr_in_, pr_out_);
    const std::vector<double>& y = pr_out_.v;
    for (int j = 0; j < n_ + m_; ++j) {
      const std::size_t col = static_cast<std::size_t>(j);
      d_[col] = in_basis_[col] ? 0.0 : costs[col] - dot_column(j, y);
    }
    pr_out_.clear();
  }

  // At-lower columns need d >= 0, at-upper ones d <= 0, up to kDualFeasEps.
  bool dual_feasible(int j) const {
    const double d = d_[static_cast<std::size_t>(j)];
    return at_upper_[static_cast<std::size_t>(j)] ? d <= kDualFeasEps : d >= -kDualFeasEps;
  }

  // prow_ = rho^T A over the nonbasic columns, rho = e_r B^-1 in pr_out_
  // (consumed). Walks only the rows rho touches, in increasing order, so
  // each entry sums its terms in the CSC's row order.
  void form_pivot_row() {
    std::sort(pr_out_.touched.begin(), pr_out_.touched.end());
    for (const int i : pr_out_.touched) {
      const double rho = pr_out_.v[static_cast<std::size_t>(i)];
      if (rho == 0.0) continue;
      if (!in_basis_[static_cast<std::size_t>(n_ + i)]) {
        prow_.set(n_ + i, rho * sign_[static_cast<std::size_t>(i)]);
      }
      for (int k = row_start_[static_cast<std::size_t>(i)];
           k < row_start_[static_cast<std::size_t>(i) + 1]; ++k) {
        const int j = csr_col_[static_cast<std::size_t>(k)];
        if (!in_basis_[static_cast<std::size_t>(j)]) {
          prow_.add(j, rho * csr_val_[static_cast<std::size_t>(k)]);
        }
      }
    }
    pr_out_.clear();
  }

  // --- column access -------------------------------------------------------

  // w += column j of the (normalized) constraint matrix.
  void load_column(int j, Scratch& w) const {
    if (j < n_) {
      for (int k = col_start_[static_cast<std::size_t>(j)];
           k < col_start_[static_cast<std::size_t>(j) + 1]; ++k) {
        w.add(row_idx_[static_cast<std::size_t>(k)], val_[static_cast<std::size_t>(k)]);
      }
    } else if (j < n_ + m_) {
      const int row = j - n_;
      w.add(row, sign_[static_cast<std::size_t>(row)]);
    } else {
      w.add(artificial_row_[static_cast<std::size_t>(j - n_ - m_)], 1.0);
    }
  }

  // y . a_j without materializing the column; y is a row-indexed dense
  // vector (a Scratch's value array qualifies).
  double dot_column(int j, const std::vector<double>& y) const {
    if (j < n_) {
      double acc = 0.0;
      for (int k = col_start_[static_cast<std::size_t>(j)];
           k < col_start_[static_cast<std::size_t>(j) + 1]; ++k) {
        acc += y[static_cast<std::size_t>(row_idx_[static_cast<std::size_t>(k)])] *
               val_[static_cast<std::size_t>(k)];
      }
      return acc;
    }
    if (j < n_ + m_) {
      const int row = j - n_;
      return y[static_cast<std::size_t>(row)] * sign_[static_cast<std::size_t>(row)];
    }
    return y[static_cast<std::size_t>(artificial_row_[static_cast<std::size_t>(j - n_ - m_)])];
  }

  // --- factorization lifecycle --------------------------------------------

  // Fresh Markowitz LU of the current basis; recomputes the basic values
  // from scratch (discarding update drift). Returns false on a numerically
  // singular basis — the primal path throws on that, the dual path
  // declines, a warm start falls back to cold. LpStats::refactor_ms
  // accumulates its wall time.
  bool refactorize(LpStats& stats) {
    const auto start = std::chrono::steady_clock::now();
    ++stats.refactorizations;
    const bool ok = lu_.factorize(m_, [this](int slot, std::vector<std::pair<int, double>>& out) {
      const int j = basis_[static_cast<std::size_t>(slot)];
      if (j < n_) {
        for (int k = col_start_[static_cast<std::size_t>(j)];
             k < col_start_[static_cast<std::size_t>(j) + 1]; ++k) {
          out.emplace_back(row_idx_[static_cast<std::size_t>(k)],
                           val_[static_cast<std::size_t>(k)]);
        }
      } else if (j < n_ + m_) {
        out.emplace_back(j - n_, sign_[static_cast<std::size_t>(j - n_)]);
      } else {
        out.emplace_back(artificial_row_[static_cast<std::size_t>(j - n_ - m_)], 1.0);
      }
    });
    if (ok) {
      compute_basic_values();
      pivots_since_refactor_ = 0;
    }
    stats.refactor_ms += elapsed_ms(start);
    return ok;
  }

  // x_B = B^-1 (b - sum of at-upper nonbasic columns at their bounds). The
  // dual also rebuilds its slot-indexed bounds and flags exactly the slots
  // that violate them.
  void compute_basic_values() {
    for (int i = 0; i < m_; ++i) {
      if (b_[static_cast<std::size_t>(i)] != 0.0) spike_.set(i, b_[static_cast<std::size_t>(i)]);
    }
    if (dual_) {
      for (int j = 0; j < num_cols_; ++j) {
        if (!at_upper_[static_cast<std::size_t>(j)] || in_basis_[static_cast<std::size_t>(j)]) {
          continue;
        }
        const double u = upper_[static_cast<std::size_t>(j)];
        if (j < n_) {
          for (int k = col_start_[static_cast<std::size_t>(j)];
               k < col_start_[static_cast<std::size_t>(j) + 1]; ++k) {
            spike_.add(row_idx_[static_cast<std::size_t>(k)],
                       -u * val_[static_cast<std::size_t>(k)]);
          }
        } else {
          spike_.add(j - n_, -u * sign_[static_cast<std::size_t>(j - n_)]);
        }
      }
    }
    lu_.ftran(spike_, alpha_, nullptr);
    std::fill(x_basic_.begin(), x_basic_.end(), 0.0);
    for (const int s : alpha_.touched) {
      x_basic_[static_cast<std::size_t>(s)] = alpha_.v[static_cast<std::size_t>(s)];
    }
    if (dual_) {
      std::fill(violated_.begin(), violated_.end(), 0);
      for (int i = 0; i < m_; ++i) {
        const double u = upper_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
        upper_basic_[static_cast<std::size_t>(i)] = u;
        const double v = x_basic_[static_cast<std::size_t>(i)];
        if (v < 0.0 || v > u) flag_violated(i);
      }
    } else {
      for (double& v : x_basic_) {
        if (v < 0.0 && v > -kFeasEps) v = 0.0;
      }
    }
    spike_.clear();
    alpha_.clear();
  }

  void flag_violated(int slot) {
    violated_[static_cast<std::size_t>(slot) / 64] |= std::uint64_t{1} << (slot % 64);
  }

  // --- the primal simplex loop ---------------------------------------------

  bool minimize(const std::vector<double>& costs, LpStats& stats) {
    int degenerate_streak = 0;
    bool bland = false;
    for (int guard = 0; guard < 200000; ++guard) {
      // Pricing: y = c_B B^-1 (one BTRAN), then one pass over the columns.
      for (int i = 0; i < m_; ++i) {
        const double cb = costs[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
        if (cb != 0.0) pr_in_.set(i, cb);
      }
      lu_.btran(pr_in_, pr_out_);
      int entering = -1;
      double most_negative = -kEps;
      for (int j = 0; j < n_ + m_; ++j) {
        if (in_basis_[static_cast<std::size_t>(j)]) continue;
        const double d = costs[static_cast<std::size_t>(j)] - dot_column(j, pr_out_.v);
        if (d >= -kEps) continue;
        if (bland) {
          // Anti-cycling: the lowest eligible index.
          entering = j;
          break;
        }
        if (d >= most_negative) continue;
        entering = j;
        most_negative = d;
      }
      pr_out_.clear();
      if (entering < 0) return true;  // optimal

      // FTRAN the entering column; the ratio test walks its nonzeros only.
      load_column(entering, spike_);
      lu_.ftran(spike_, alpha_, &stats);
      int leaving = -1;
      double best = std::numeric_limits<double>::infinity();
      for (const int i : alpha_.touched) {
        const double a = alpha_.v[static_cast<std::size_t>(i)];
        if (a <= kEps) continue;
        const double ratio = std::max(0.0, x_basic_[static_cast<std::size_t>(i)]) / a;
        if (ratio < best - kEps ||
            (ratio < best + kEps &&
             (leaving < 0 || basis_[static_cast<std::size_t>(i)] <
                                 basis_[static_cast<std::size_t>(leaving)]))) {
          best = ratio;
          leaving = i;
        }
      }
      if (leaving < 0) {
        spike_.clear();
        alpha_.clear();
        return false;  // unbounded
      }

      pivot(entering, leaving, best, stats);
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

  // Applies the pivot described by the FTRANed entering column (alpha_,
  // with its L-stage spike still in spike_), then updates the
  // factorization and releases the scratches. Primal-only: throws on a
  // singular refactorization.
  void pivot(int entering, int leaving_slot, double step, LpStats& stats) {
    if (step != 0.0) {
      for (const int i : alpha_.touched) {
        double& xv = x_basic_[static_cast<std::size_t>(i)];
        xv -= step * alpha_.v[static_cast<std::size_t>(i)];
        if (xv < 0.0 && xv > -kFeasEps) xv = 0.0;
      }
    }
    x_basic_[static_cast<std::size_t>(leaving_slot)] = step;
    in_basis_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(leaving_slot)])] = 0;
    in_basis_[static_cast<std::size_t>(entering)] = 1;
    basis_[static_cast<std::size_t>(leaving_slot)] = entering;
    ++stats.iterations;
    const bool lu_ok = lu_.update(leaving_slot, spike_);
    spike_.clear();
    alpha_.clear();
    ++pivots_since_refactor_;
    if (!lu_ok || pivots_since_refactor_ >= kRefactorInterval || lu_.growth_exceeded()) {
      if (lu_ok && pivots_since_refactor_ < kRefactorInterval) {
        ++stats.nnz_refactorizations;
      }
      if (!refactorize(stats)) {
        throw Error("simplex: singular basis during refactorization");
      }
    }
  }

  // Drives every artificial still basic (necessarily at value 0 after a
  // feasible phase 1) out of the basis by a degenerate pivot on the lowest
  // eligible real column. Rows with no eligible column are redundant: the
  // artificial stays, and because its tableau row is identically zero over
  // the real columns, no later FTRANed column can touch it.
  void expel_artificials(LpStats& stats) {
    for (int r = 0; r < m_; ++r) {
      if (basis_[static_cast<std::size_t>(r)] < n_ + m_) continue;
      pr_in_.set(r, 1.0);
      lu_.btran(pr_in_, pr_out_);  // pr_out_ = row r of B^-1
      int enter = -1;
      for (int j = 0; j < n_ + m_; ++j) {
        if (in_basis_[static_cast<std::size_t>(j)]) continue;
        if (std::abs(dot_column(j, pr_out_.v)) <= kEps) continue;
        enter = j;
        break;
      }
      pr_out_.clear();
      if (enter < 0) continue;
      load_column(enter, spike_);
      lu_.ftran(spike_, alpha_, &stats);
      pivot(enter, r, 0.0, stats);
    }
  }

  bool dual_ = false;

  int m_ = 0;
  int n_ = 0;
  int num_artificial_ = 0;
  int num_cols_ = 0;
  double max_abs_rhs_ = 0.0;

  std::vector<double> sign_;
  std::vector<double> b_;
  std::vector<int> artificial_row_;      // artificial k -> its row
  std::vector<int> artificial_of_row_;   // row -> artificial column, or -1
  std::vector<int> col_start_;           // CSC, structural columns only
  std::vector<int> row_idx_;
  std::vector<double> val_;
  // Dual only: the CSR copy of the same matrix, and one content key per row.
  std::vector<int> row_start_;
  std::vector<int> csr_col_;
  std::vector<double> csr_val_;
  std::vector<std::uint64_t> row_keys_;

  std::vector<int> basis_;     // slot -> basic column (stable across refactors)
  std::vector<char> in_basis_;
  std::vector<double> x_basic_;         // slot-indexed basic values
  std::vector<char> at_upper_;          // nonbasic-at-upper status (dual)
  std::vector<double> upper_;           // per-column upper bound (dual)
  std::vector<char> working_;           // bound is artificial (dual)
  std::vector<double> d_;               // reduced costs, nonbasic columns (dual)
  std::vector<int> recheck_;            // columns whose d moved at the last pivot
  std::vector<double> upper_basic_;     // slot -> upper_ of its basic column (dual)
  // One bit per slot, set for (at least) every slot whose x_B lies outside
  // [0, upper_basic_]: set where x_B or the slot's bound changes, cleared
  // by the leaving-row scan once it finds the slot feasible (dual).
  std::vector<std::uint64_t> violated_;
  LuBasis lu_;
  int pivots_since_refactor_ = 0;

  Scratch spike_;   // row-indexed FTRAN rhs / L-stage image
  Scratch alpha_;   // slot-indexed FTRAN result
  Scratch pr_in_;   // slot-indexed BTRAN rhs
  Scratch pr_out_;  // row-indexed BTRAN result
  Scratch prow_;    // column-indexed dual pivot row alpha_r (dual)
};

}  // namespace

void solve_lp_primal_into(const LpProblem& problem, LpSolution& solution) {
  check_dimensions(problem);
  const auto start = std::chrono::steady_clock::now();
  if (has_finite_upper(problem)) {
    // The primal simplex has no bounded-variable machinery; it solves the
    // row-augmented equivalent (same objective, same x).
    const LpProblem boxed = upper_bounds_as_rows(problem);
    RevisedSimplex engine(boxed);
    engine.solve(boxed, solution);
  } else {
    RevisedSimplex engine(problem);
    engine.solve(problem, solution);
  }
  solution.stats.wall_ms = elapsed_ms(start);
}

void solve_lp_dual_into(const LpProblem& problem, LpSolution& solution, LpWarmStart* warm) {
  check_dimensions(problem);
  const auto start = std::chrono::steady_clock::now();
  bool solved = false;
  {
    RevisedSimplex engine(problem, /*dual_start=*/true);
    solved = engine.solve_dual(problem, solution, warm);
  }  // the engine's teardown (its retained workspaces) is part of the solve
  if (solved) {
    solution.stats.wall_ms = elapsed_ms(start);
    return;
  }
  // The dual declined. A declined basis is not a warm-startable one — the
  // primal answer carries no dual status — so the handle is voided.
  if (warm != nullptr) warm->clear();
  const LpStats declined = solution.stats;
  const double declined_ms = elapsed_ms(start);
  // Rerun the unchanged problem through the primal simplex. The primary
  // counters then describe the authoritative primal solve ALONE; the
  // abandoned attempt is reported under the declined_* split (pinned by
  // sparse_simplex_test).
  solve_lp_primal_into(problem, solution);
  solution.stats.dual_fallbacks = 1;
  solution.stats.declined_dual_pivots = declined.dual_pivots;
  solution.stats.declined_refactorizations = declined.refactorizations;
  solution.stats.declined_wall_ms = declined_ms;
  solution.stats.warm_attempted = declined.warm_attempted;
  solution.stats.warm_accepted = declined.warm_accepted;
  solution.stats.warm_declined_rows = declined.warm_declined_rows;
  solution.stats.warm_declined_singular = declined.warm_declined_singular;
  solution.stats.warm_declined_dual = declined.warm_declined_dual;
}

LpSolution solve_lp_primal(const LpProblem& problem) {
  LpSolution solution;
  solve_lp_primal_into(problem, solution);
  return solution;
}

}  // namespace rsg::compact::detail
