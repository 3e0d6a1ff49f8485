// The §6.1–§6.3 leaf/LP path at scale: the dense-tableau oracle vs the
// sparse revised simplex (solve_lp's dual and its primal fallback) on
// growing synthetic leaf libraries.
//
// One LeafLpModel is built per library size (make_leaf_library chains
// every cell to itself and its successor, so the LP couples the whole
// library), then each solver solves the identical LpProblem:
//
//   dense    the two-phase tableau of the test-only oracle
//            (tests/oracle/dense_tableau.hpp) — O(m * cols) per pivot
//   sparse   the primal fallback on its own (detail::solve_lp_primal): the
//            CSC + LU revised simplex of sparse_simplex.cpp, Dantzig
//            pricing — O(m + nnz) per pivot
//   dual     solve_lp: the same machinery driven by the dual simplex from
//            the all-slack basis: the compaction objective is componentwise
//            nonnegative, so phase 1 — ~98 % of the primal pivot count on
//            these libraries — never runs at all
//
// The acceptance bars: sparse >= 10x dense at the largest swept size with
// matching objectives, and the dual at ZERO phase-1 pivots with >= 2x
// total-pivot reduction vs the primal at the 32-cell library,
// bit-identical objectives (sparse_simplex_test pins both). CI runs the
// small sizes via scripts/bench_smoke.sh and uploads
// BENCH_leaf_scaling.json; run the binary with no filter for the full
// sweep.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "compact/leaf_compactor.hpp"
#include "compact/synth_design.hpp"
#include "compact/xy_schedule.hpp"
#include "oracle/dense_tableau.hpp"

namespace {

using namespace rsg::compact;

constexpr int kBoxesPerCell = 8;

const LeafLpModel& model_for(int num_cells) {
  static std::map<int, LeafLpModel> models;
  auto it = models.find(num_cells);
  if (it == models.end()) {
    const SynthLeafLibrary lib = make_leaf_library(num_cells, kBoxesPerCell, /*seed=*/7);
    it = models
             .emplace(num_cells,
                      build_leaf_lp(lib.cells, lib.interfaces, lib.cell_names, lib.pitch_specs,
                                    CompactionRules::mosis()))
             .first;
  }
  return it->second;
}

LpSolution solve_dual(const LpProblem& problem) { return solve_lp(problem); }

void run_method(benchmark::State& state, LpSolution (*solve)(const LpProblem&)) {
  const LeafLpModel& model = model_for(static_cast<int>(state.range(0)));
  LpSolution solution;
  for (auto _ : state) {
    solution = solve(model.lp);
    benchmark::DoNotOptimize(solution.objective);
  }
  state.counters["rows"] = static_cast<double>(model.lp.constraints.size());
  state.counters["cols"] = static_cast<double>(model.lp.num_vars);
  state.counters["pivots"] = static_cast<double>(solution.stats.iterations);
  state.counters["phase1_pivots"] = static_cast<double>(solution.stats.phase1_pivots);
  state.counters["dual_pivots"] = static_cast<double>(solution.stats.dual_pivots);
  state.counters["dual_fallbacks"] = static_cast<double>(solution.stats.dual_fallbacks);
  state.counters["refactorizations"] = static_cast<double>(solution.stats.refactorizations);
  state.counters["nnz_refactorizations"] =
      static_cast<double>(solution.stats.nnz_refactorizations);
  // How much of the last solve's wall time went to refactorizing.
  state.counters["refactor_ms"] = solution.stats.refactor_ms;
  // The hyper-sparse claim, per size: the fraction of upper-triangular
  // positions the graph-ordered FTRAN never touched. Grows with the
  // library (the rhs stays a few nonzeros while m grows), which is what
  // makes the 64/128/256-cell sweep falsifiable.
  state.counters["ftran_rows"] = static_cast<double>(solution.stats.ftran_rows);
  state.counters["ftran_skip_ratio"] =
      solution.stats.ftran_rows > 0
          ? static_cast<double>(solution.stats.ftran_rows_skipped) /
                static_cast<double>(solution.stats.ftran_rows)
          : 0.0;
  state.counters["objective"] = solution.objective;
}

void BM_LeafSolveDense(benchmark::State& state) {
  run_method(state, &oracle::solve_dense_tableau);
}
void BM_LeafSolveSparse(benchmark::State& state) { run_method(state, &detail::solve_lp_primal); }
void BM_LeafSolveSparseDual(benchmark::State& state) { run_method(state, &solve_dual); }

// The warm-start acceptance workload: the full leaf x/y schedule under the
// production defaults (LeafXyOptions{}: at most 4 rounds, stopping on
// convergence), warm vs cold. The convergence profile on these libraries:
// round 1 is always cold; round 2 rebuilds a SMALLER model from the
// compacted geometry (a different row count, so the carried basis is
// declined for its rows); round 3 only confirms convergence. Its LP is
// round 2's with the rows emitted in another order, and the engine matches
// rows by content, so the warm run adopts round 2's basis and re-solves in
// zero pivots where the cold run repeats round 2's. bench_smoke.sh gates
// post_round_pivots(warm) * 2 <= post_round_pivots(cold) and
// last_round_pivots(warm) == 0 at 32 cells.
void run_schedule(benchmark::State& state, bool warm_start) {
  const SynthLeafLibrary lib =
      make_leaf_library(static_cast<int>(state.range(0)), kBoxesPerCell, /*seed=*/7);
  LeafXyOptions options;
  options.warm_start = warm_start;
  LeafXyResult result;
  for (auto _ : state) {
    result = compact_leaf_schedule(lib.cells, lib.interfaces, lib.cell_names, lib.pitch_specs,
                                   CompactionRules::mosis(), options);
    benchmark::DoNotOptimize(result.rounds);
  }
  double first_round = 0.0;
  double post_rounds = 0.0;
  double last_round = 0.0;
  double warm_accepted = 0.0;
  for (std::size_t r = 0; r < result.round_stats.size(); ++r) {
    const LeafRoundStats& rs = result.round_stats[r];
    const double pivots = static_cast<double>(rs.x_lp.iterations + rs.y_lp.iterations);
    (r == 0 ? first_round : post_rounds) += pivots;
    last_round = pivots;
    warm_accepted += static_cast<double>(rs.x_lp.warm_accepted + rs.y_lp.warm_accepted);
  }
  state.counters["rounds"] = static_cast<double>(result.rounds);
  state.counters["first_round_pivots"] = first_round;
  state.counters["post_round_pivots"] = post_rounds;
  state.counters["last_round_pivots"] = last_round;
  state.counters["warm_accepted"] = warm_accepted;
}

void BM_LeafScheduleWarm(benchmark::State& state) { run_schedule(state, /*warm_start=*/true); }
void BM_LeafScheduleCold(benchmark::State& state) { run_schedule(state, /*warm_start=*/false); }

// The dense oracle stays at its historical ceiling (a 16-cell dense solve
// is already seconds); the sparse engines sweep on to 256 cells,
// where the hyper-sparse solves and the LU factor sizes either pay off in
// the artifact or visibly fail to.
BENCHMARK(BM_LeafSolveDense)->RangeMultiplier(2)->Range(2, 32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeafSolveSparse)->RangeMultiplier(2)->Range(2, 256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeafSolveSparseDual)
    ->RangeMultiplier(2)
    ->Range(2, 256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeafScheduleWarm)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeafScheduleCold)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void print_scaling_table() {
  std::printf(
      "== leaf/LP compaction at scale (§6.1–§6.3): dense vs sparse vs dual simplex ==\n");
  std::printf("%-7s %-7s %-7s %-11s %-11s %-11s %-9s %-12s %-12s %-10s %-9s\n", "cells", "rows",
              "cols", "dense(ms)", "sparse(ms)", "dual(ms)", "speedup", "primal piv",
              "dual piv", "piv ratio", "obj match");
  using Clock = std::chrono::steady_clock;
  for (const int cells : {2, 4, 8, 16, 32}) {
    const LeafLpModel& model = model_for(cells);
    const auto t0 = Clock::now();
    const LpSolution dense = oracle::solve_dense_tableau(model.lp);
    const auto t1 = Clock::now();
    const LpSolution sparse = detail::solve_lp_primal(model.lp);
    const auto t2 = Clock::now();
    const LpSolution dual = solve_lp(model.lp);
    const auto t3 = Clock::now();
    const double dense_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double sparse_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    const double dual_ms = std::chrono::duration<double, std::milli>(t3 - t2).count();
    const bool match = dual.objective == dense.objective &&
                       std::abs(dense.objective - sparse.objective) <=
                           1e-6 * (1.0 + std::abs(dense.objective));
    char primal_piv[32];
    std::snprintf(primal_piv, sizeof primal_piv, "%d(p1 %d)", sparse.stats.iterations,
                  sparse.stats.phase1_pivots);
    char dual_piv[32];
    std::snprintf(dual_piv, sizeof dual_piv, "%d(p1 %d)", dual.stats.iterations,
                  dual.stats.phase1_pivots);
    std::printf("%-7d %-7zu %-7d %-11.2f %-11.2f %-11.2f %-9.1f %-12s %-12s %-10.2f %-9s\n",
                cells, model.lp.constraints.size(), model.lp.num_vars, dense_ms, sparse_ms,
                dual_ms, dense_ms / sparse_ms, primal_piv, dual_piv,
                static_cast<double>(sparse.stats.iterations) /
                    static_cast<double>(dual.stats.iterations),
                match ? "yes" : "NO");
  }
  std::printf("speedup = dense / sparse on the identical LpProblem. Acceptance bars:\n");
  std::printf(">= 10x speedup at the largest size with matching objectives, and the dual\n");
  std::printf("simplex at ZERO phase-1 pivots with piv ratio (primal/dual) >= 2 there.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The summary table runs every size unfiltered (the dense 16-cell solve
  // is seconds), so only print it for a bare invocation — filtered CI smoke
  // runs and --benchmark_list_tests skip straight to the harness.
  if (argc == 1) print_scaling_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
