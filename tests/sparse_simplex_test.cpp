// Equivalence and robustness tests for the sparse revised simplex — solve_lp
// (the dual simplex) and its primal fallback: both must reproduce the
// dense-tableau oracle's objectives on the leaf-compaction workloads they
// were built to scale (and its geometry where the optimum is unique), stay
// exact on randomized small LPs, and survive known-degenerate systems
// through the Bland anti-cycling fallback.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <utility>

#include "compact/leaf_compactor.hpp"
#include "compact/simplex.hpp"
#include "compact/synth_design.hpp"
#include "oracle/dense_tableau.hpp"
#include "support/error.hpp"

namespace rsg::compact {
namespace {

// The three instances this file pins the dual simplex declining on; each
// decline hands the unchanged problem to the primal fallback.

// min -x with x unconstrained above: the negative-cost column gets a
// WORKING upper bound, and the extended optimum rides it.
LpProblem working_bound_ray() {
  LpProblem p;
  p.num_vars = 1;
  p.objective = {-1.0};
  return p;
}

// min -x0 + x1 - x2 with x0 boxed by rows and a forcing row that needs dual
// repair first, plus an uncovered negative-cost column x2 whose working
// bound carries the optimum: the dual pivots before it declines.
LpProblem declined_work() {
  LpProblem p;
  p.num_vars = 3;
  p.objective = {-1.0, 1.0, -1.0};
  p.constraints = {
      {{{0, 1.0}}, 5.0},              // x0 <= 5
      {{{0, -1.0}, {1, 1.0}}, -2.0},  // x0 - x1 >= 2: forces dual pivots
  };
  return p;
}

// 1e-8 x0 + x1 >= 1 with a near-free x0: the Harris window admits only the
// alpha = -1e-8 candidate (the well-scaled column's ratio lies far outside
// the relaxed bound), which sits below the pivot-magnitude floor.
LpProblem near_singular_pivot() {
  LpProblem p;
  p.num_vars = 2;
  p.objective = {1e-10, 20.0};
  p.constraints = {
      {{{0, -1e-8}, {1, -1.0}}, -1.0},  // 1e-8 x0 + x1 >= 1
  };
  return p;
}

TEST(SparseSimplex, MatchesDenseObjectiveOnSeededLeafLibraries) {
  // The acceptance workload: the same synthetic libraries bench_leaf_scaling
  // sweeps, across seeds and sizes. Identical LpProblem, the primal
  // fallback against the oracle, the objectives must agree to relative 1e-6.
  for (const std::uint32_t seed : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    const int num_cells = 2 + static_cast<int>(seed % 4) * 2;
    const SynthLeafLibrary lib = make_leaf_library(num_cells, 6, seed);
    const LeafLpModel model = build_leaf_lp(lib.cells, lib.interfaces, lib.cell_names,
                                            lib.pitch_specs, CompactionRules::mosis());
    const LpSolution dense = oracle::solve_dense_tableau(model.lp);
    ASSERT_TRUE(dense.feasible && dense.bounded) << "seed " << seed;
    const LpSolution sparse = detail::solve_lp_primal(model.lp);
    ASSERT_TRUE(sparse.feasible && sparse.bounded) << "seed " << seed;
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-6 * (1.0 + std::abs(dense.objective)))
        << "seed " << seed;
  }
}

TEST(SparseSimplex, DualMatchesDenseBitForBitWithZeroPhaseOnePivots) {
  // THE acceptance pin of the dual engine, on the exact libraries
  // bench_leaf_scaling sweeps (seed 7, 8 boxes per cell): the compaction
  // objective is emitted componentwise nonnegative, so the dual must run
  // start to finish with NO phase-1 pivots, NO primal fallback, reach the
  // BIT-IDENTICAL objective of the dense Dantzig tableau, and spend at
  // most half the primal Dantzig pivot count. On these near-unimodular
  // matrices every pivot element is +-1 and all arithmetic is exact, so the
  // primal fallback must reach the identical objective too.
  for (const int num_cells : {16, 32}) {
    const SynthLeafLibrary lib = make_leaf_library(num_cells, 8, 7);
    const LeafLpModel model = build_leaf_lp(lib.cells, lib.interfaces, lib.cell_names,
                                            lib.pitch_specs, CompactionRules::mosis());
    const LpSolution dense = oracle::solve_dense_tableau(model.lp);
    const LpSolution primal = detail::solve_lp_primal(model.lp);
    const LpSolution dual = solve_lp(model.lp);
    ASSERT_TRUE(dense.feasible && dense.bounded) << num_cells << " cells";
    ASSERT_TRUE(primal.feasible && primal.bounded) << num_cells << " cells";
    ASSERT_TRUE(dual.feasible && dual.bounded) << num_cells << " cells";
    EXPECT_EQ(dual.objective, dense.objective) << num_cells << " cells";
    EXPECT_EQ(primal.objective, dense.objective) << num_cells << " cells";
    EXPECT_EQ(dual.stats.phase1_pivots, 0) << num_cells << " cells";
    EXPECT_EQ(dual.stats.dual_fallbacks, 0) << num_cells << " cells";
    EXPECT_EQ(dual.stats.dual_pivots, dual.stats.iterations) << num_cells << " cells";
    EXPECT_GT(primal.stats.phase1_pivots, 0) << num_cells << " cells";
    EXPECT_LE(2 * dual.stats.iterations, primal.stats.iterations) << num_cells << " cells";
  }
}

TEST(SparseSimplex, DualMatchesDenseObjectiveOnSeededLeafLibraries) {
  // The seeded-ensemble version of the pin: every library the primal
  // equivalence test replays, solved by solve_lp — same objective, never a
  // phase-1 pivot, never a fallback.
  for (const std::uint32_t seed : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    const int num_cells = 2 + static_cast<int>(seed % 4) * 2;
    const SynthLeafLibrary lib = make_leaf_library(num_cells, 6, seed);
    const LeafLpModel model = build_leaf_lp(lib.cells, lib.interfaces, lib.cell_names,
                                            lib.pitch_specs, CompactionRules::mosis());
    const LpSolution dense = oracle::solve_dense_tableau(model.lp);
    const LpSolution dual = solve_lp(model.lp);
    ASSERT_TRUE(dense.feasible && dense.bounded) << "seed " << seed;
    ASSERT_TRUE(dual.feasible && dual.bounded) << "seed " << seed;
    EXPECT_NEAR(dual.objective, dense.objective, 1e-6 * (1.0 + std::abs(dense.objective)))
        << "seed " << seed;
    EXPECT_EQ(dual.stats.phase1_pivots, 0) << "seed " << seed;
    EXPECT_EQ(dual.stats.dual_fallbacks, 0) << "seed " << seed;
  }
}

TEST(SparseSimplex, DualFallsBackToPrimalOnItsOwnTerritory) {
  // The working-bound ray: the engine must hand the problem to the primal
  // path — which proves it unbounded — while recording the fallback.
  const LpSolution s = solve_lp(working_bound_ray());
  ASSERT_TRUE(s.feasible);
  EXPECT_FALSE(s.bounded);
  EXPECT_EQ(s.stats.dual_fallbacks, 1);
  // The primary counters describe the authoritative primal solve alone:
  // no dual pivots may leak into them after the decline.
  EXPECT_EQ(s.stats.dual_pivots, 0);
}

TEST(SparseSimplex, DeclinedDualWorkIsReportedUnderDistinctCounters) {
  // Regression: the DECLINE->primal fallback used to fold the abandoned
  // dual attempt's counters into the primal totals, so `iterations` and
  // `refactorizations` described neither solve. On this problem the dual
  // genuinely iterates before discovering its optimum rides a working
  // bound.
  const LpProblem p = declined_work();
  const LpSolution s = solve_lp(p);
  ASSERT_TRUE(s.feasible);
  EXPECT_FALSE(s.bounded);  // x2 is a free ray
  ASSERT_EQ(s.stats.dual_fallbacks, 1);
  // The abandoned attempt did real work, and that work is visible — but
  // under the declined_* counters, not the primal's.
  EXPECT_GT(s.stats.declined_dual_pivots, 0);
  EXPECT_GE(s.stats.declined_wall_ms, 0.0);
  EXPECT_EQ(s.stats.dual_pivots, 0);
  // The split, asserted exactly: the fallback's primary counters must be
  // INDISTINGUISHABLE from a pure primal solve of the same problem —
  // nothing of the dual attempt folded in.
  const LpSolution primal = detail::solve_lp_primal(p);
  EXPECT_EQ(s.stats.iterations, primal.stats.iterations);
  EXPECT_EQ(s.stats.refactorizations, primal.stats.refactorizations);
  EXPECT_EQ(s.stats.phase1_pivots, primal.stats.phase1_pivots);
}

TEST(SparseSimplex, DualDeclinesNearSingularPivotInsteadOfTakingIt) {
  // Regression: a single-pass ratio test accepting any pivot with
  // |alpha| > kEps = 1e-9 pivots on this instance's 1e-8 and seeds the
  // factorization with a near-singular update. The two-pass test's
  // pivot-magnitude floor (kStablePivotTol = 1e-7) must DECLINE the solve
  // instead; the primal fallback then reaches the exact optimum x0 = 1e8,
  // objective 0.01, which pins the verdict against the oracle.
  const LpProblem p = near_singular_pivot();
  const LpSolution dense = oracle::solve_dense_tableau(p);
  ASSERT_TRUE(dense.feasible && dense.bounded);
  const LpSolution dual = solve_lp(p);
  ASSERT_TRUE(dual.feasible && dual.bounded);
  EXPECT_EQ(dual.stats.dual_fallbacks, 1);  // declined, not pivoted
  EXPECT_EQ(dual.stats.declined_dual_pivots, 0);
  EXPECT_NEAR(dual.objective, dense.objective, 1e-9 * (1.0 + std::abs(dense.objective)));
  EXPECT_NEAR(dual.objective, 0.01, 1e-9);
}

TEST(SparseSimplex, DualDeclineVoidsTheWarmHandle) {
  // The LpWarmStart contract: a solve that declines to the primal fallback
  // clears the handle it was given, because the primal answer certifies no
  // dual-feasible basis. Fill a handle from a feasible solve, hand it to
  // each declining instance, and the next solve of the feasible problem
  // must find nothing to attempt.
  LpProblem feasible;  // min x0 + x1, x0 >= 1, x1 >= x0 + 2
  feasible.num_vars = 2;
  feasible.objective = {1.0, 1.0};
  feasible.constraints = {
      {{{0, -1.0}}, -1.0},
      {{{0, 1.0}, {1, -1.0}}, -2.0},
  };
  const std::pair<const char*, LpProblem> declining[] = {
      {"working-bound ray", working_bound_ray()},
      {"declined work", declined_work()},
      {"near-singular pivot", near_singular_pivot()},
  };
  for (const auto& [name, p] : declining) {
    LpWarmStart handle;
    ASSERT_TRUE(solve_lp(feasible, &handle).feasible) << name;
    ASSERT_TRUE(handle.valid()) << name;
    ASSERT_EQ(solve_lp(feasible, &handle).stats.warm_attempted, 1) << name;

    const LpSolution s = solve_lp(p, &handle);
    EXPECT_EQ(s.stats.dual_fallbacks, 1) << name;
    EXPECT_FALSE(handle.valid()) << name;
    EXPECT_EQ(solve_lp(feasible, &handle).stats.warm_attempted, 0) << name;
  }
}

TEST(SparseSimplex, DualHandlesMixedSignObjectivesNatively) {
  // The bounded-variable ratio test's core claim: a mixed-sign objective
  // whose negative-cost columns are all covered by finite user bounds
  // solves start to finish in the dual — no fallback, no phase-1 pivots —
  // and bit-agrees with the oracle on this all-integer instance.
  LpProblem p;
  p.num_vars = 3;
  p.objective = {-2.0, 0.5, -1.0};
  p.upper = {4.0, kLpUnbounded, 3.0};
  p.constraints = {
      {{{0, 1.0}, {1, -1.0}}, 2.0},   // x0 - x1 <= 2
      {{{0, 1.0}, {2, 1.0}}, 6.0},    // x0 + x2 <= 6
  };
  const LpSolution dense = oracle::solve_dense_tableau(p);
  ASSERT_TRUE(dense.feasible && dense.bounded);
  const LpSolution dual = solve_lp(p);
  ASSERT_TRUE(dual.feasible && dual.bounded);
  EXPECT_EQ(dual.objective, dense.objective);
  EXPECT_EQ(dual.stats.dual_fallbacks, 0);
  EXPECT_EQ(dual.stats.phase1_pivots, 0);
  // x0 rides its finite bound at the optimum (cost -2 dominates): the
  // at-upper resting state, not a row, carries the bound.
  EXPECT_NEAR(dual.x[0], 4.0, 1e-9);
  EXPECT_NEAR(dual.x[2], 2.0, 1e-9);
}

TEST(SparseSimplex, StatsResetBetweenSolvesOnReusedSolution) {
  // Regression: the engine accumulated LpStats into whatever
  // `solution` it was handed, so reusing an LpSolution across solve calls
  // doubled the refactorization counter. The chain problem below crosses
  // the refactorization interval, which makes the accumulation observable:
  // a second solve into the SAME solution object must report the same
  // counts as the first, not their sum.
  LpProblem p;
  constexpr int kVars = 400;
  p.num_vars = kVars;
  p.objective.assign(kVars, 0.0);
  p.objective.back() = 1.0;
  p.constraints.push_back({{{0, -1.0}}, -1.0});
  for (int v = 1; v < kVars; ++v) {
    p.constraints.push_back({{{v - 1, 1.0}, {v, -1.0}}, -1.0});
  }
  LpSolution reused;
  detail::solve_lp_primal_into(p, reused);
  const LpStats first = reused.stats;
  ASSERT_GT(first.refactorizations, 0);
  detail::solve_lp_primal_into(p, reused);
  EXPECT_EQ(reused.stats.refactorizations, first.refactorizations);
  EXPECT_EQ(reused.stats.iterations, first.iterations);

  detail::solve_lp_dual_into(p, reused);
  const LpStats dual_first = reused.stats;
  detail::solve_lp_dual_into(p, reused);
  EXPECT_EQ(reused.stats.refactorizations, dual_first.refactorizations);
  EXPECT_EQ(reused.stats.iterations, dual_first.iterations);
  EXPECT_EQ(reused.stats.dual_pivots, dual_first.dual_pivots);

  // The reset covers every field, not just stats: an infeasible solve into
  // the same (feasible, x-populated) solution must not leak the previous
  // x / objective / bounded values through its early exit.
  LpProblem infeasible;
  infeasible.num_vars = 1;
  infeasible.objective = {1.0};
  infeasible.constraints = {{{{0, 1.0}}, 1.0}, {{{0, -1.0}}, -3.0}};
  for (const bool dual : {false, true}) {
    detail::solve_lp_primal_into(p, reused);
    ASSERT_TRUE(reused.feasible && !reused.x.empty());
    if (dual) {
      detail::solve_lp_dual_into(infeasible, reused);
    } else {
      detail::solve_lp_primal_into(infeasible, reused);
    }
    EXPECT_FALSE(reused.feasible);
    EXPECT_TRUE(reused.bounded);
    EXPECT_TRUE(reused.x.empty());
    EXPECT_EQ(reused.objective, 0.0);
  }
}

TEST(SparseSimplex, MatchesDenseGeometryOnUniqueOptimum) {
  // End to end through the leaf compactor on the Figure 6.3-style cell of
  // leafcell_test, whose optimum is unique (rigid widths force every edge):
  // the oracle and the primal fallback must land on the edges and pitch
  // the compactor's solve_lp path rebuilds the geometry from.
  CellTable cells;
  InterfaceTable interfaces;
  Cell& a = cells.create("a");
  a.add_box(Layer::kMetal1, Box(0, 0, 10, 4));
  a.add_box(Layer::kMetal1, Box(30, 0, 40, 4));
  interfaces.declare("a", "a", 1, Interface{{60, 0}, Orientation::kNorth});
  const std::vector<PitchSpec> specs = {{"a", "a", 1, 1.0}};

  const LeafLpModel model =
      build_leaf_lp(cells, interfaces, {"a"}, specs, CompactionRules::mosis());
  const LpSolution dense = oracle::solve_dense_tableau(model.lp);
  const LpSolution sparse = detail::solve_lp_primal(model.lp);
  const LeafResult dual = solve_leaf_model(model);
  ASSERT_TRUE(dense.feasible && dense.bounded);
  ASSERT_TRUE(sparse.feasible && sparse.bounded);
  // The LP's leading columns are the system's edge variables, then its
  // pitches (ConstraintSystemBuilder::edge_column / pitch_column).
  const auto at = [](const LpSolution& s, std::size_t column) {
    return static_cast<Coord>(std::llround(s.x[column]));
  };
  const std::size_t pitch_column =
      model.system.variable_count() + static_cast<std::size_t>(model.pitch_ids[0]);
  const LeafCellVars& vars = model.cells.at("a");
  const std::vector<LayerBox>& boxes = dual.cells.at("a");
  ASSERT_EQ(boxes.size(), vars.boxes.size());
  for (const LpSolution* solution : {&dense, &sparse}) {
    for (std::size_t b = 0; b < boxes.size(); ++b) {
      EXPECT_EQ(boxes[b].box.lo.x, at(*solution, static_cast<std::size_t>(vars.left_vars[b])));
      EXPECT_EQ(boxes[b].box.hi.x, at(*solution, static_cast<std::size_t>(vars.right_vars[b])));
    }
    EXPECT_EQ(dual.pitches[0], at(*solution, pitch_column));
  }
  EXPECT_NEAR(dense.objective, sparse.objective, 1e-6);
  EXPECT_NEAR(dense.objective, dual.objective, 1e-6);
  EXPECT_EQ(dual.lp_stats.phase1_pivots, 0);
  EXPECT_EQ(dual.lp_stats.dual_fallbacks, 0);
}

TEST(SparseSimplex, MatchesDenseOnRandomSmallLps) {
  // Fuzz: random bounded-feasible LPs (nonnegative objective keeps them
  // bounded; mixed-sign rhs exercises phase 1 and the artificial machinery).
  for (std::uint32_t seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(seed * 2654435761u + 1);
    std::uniform_int_distribution<int> dim(1, 8);
    std::uniform_real_distribution<double> coeff(-3.0, 3.0);
    std::uniform_real_distribution<double> cost(0.0, 2.0);

    LpProblem p;
    p.num_vars = dim(rng);
    for (int j = 0; j < p.num_vars; ++j) p.objective.push_back(cost(rng));
    const int rows = dim(rng);
    for (int i = 0; i < rows; ++i) {
      LpConstraint c;
      for (int j = 0; j < p.num_vars; ++j) {
        const double v = coeff(rng);
        if (std::abs(v) > 1.0) c.terms.emplace_back(j, v);
      }
      c.rhs = coeff(rng);
      p.constraints.push_back(std::move(c));
    }

    const LpSolution dense = oracle::solve_dense_tableau(p);
    const LpSolution sparse = detail::solve_lp_primal(p);
    ASSERT_EQ(dense.feasible, sparse.feasible) << "seed " << seed;
    if (!dense.feasible) continue;
    ASSERT_EQ(dense.bounded, sparse.bounded) << "seed " << seed;
    if (!dense.bounded) continue;
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-6 * (1.0 + std::abs(dense.objective)))
        << "seed " << seed;
  }
}

TEST(SparseSimplex, BlandFallbackEngagesOnDegenerateStreak) {
  // A known-degenerate plateau: k rows x_{k+1} <= x_i are all tight at the
  // origin, so the walk to the optimum is a long chain of zero-step pivots.
  // The streak guard must flip the primal fallback and the oracle to
  // Bland's rule (observable in the stats) and both must still reach the
  // true optimum x = 1.
  LpProblem p;
  constexpr int kChain = 20;
  p.num_vars = kChain + 1;
  p.objective.assign(kChain + 1, 0.0);
  p.objective.back() = -1.0;  // max x_{k+1}
  for (int i = 0; i < kChain; ++i) {
    p.constraints.push_back({{{kChain, 1.0}, {i, -1.0}}, 0.0});  // x_{k+1} <= x_i
    p.constraints.push_back({{{i, 1.0}}, 1.0});                  // x_i <= 1
  }
  p.constraints.push_back({{{kChain, 1.0}}, 1.0});  // x_{k+1} <= 1
  for (const LpSolution& s : {oracle::solve_dense_tableau(p), detail::solve_lp_primal(p)}) {
    ASSERT_TRUE(s.feasible);
    ASSERT_TRUE(s.bounded);
    EXPECT_NEAR(s.objective, -1.0, 1e-6);
    EXPECT_GE(s.stats.degenerate_pivots, kDegeneratePivotStreak);
    EXPECT_GT(s.stats.bland_pivots, 0);
  }
}

TEST(SparseSimplex, BealeCyclingExampleTerminates) {
  // Beale's classic cycling construction, the canonical known-degenerate
  // regression input: whatever pricing path the engines take, they must
  // terminate at the optimum instead of looping.
  LpProblem p;
  p.num_vars = 3;
  p.objective = {-0.75, 150.0, -0.02};
  p.constraints = {
      {{{0, 0.25}, {1, -60.0}, {2, -0.04}}, 0.0},
      {{{0, 0.5}, {1, -90.0}, {2, -0.02}}, 0.0},
      {{{2, 1.0}}, 1.0},
  };
  for (const LpSolution& s : {oracle::solve_dense_tableau(p), detail::solve_lp_primal(p)}) {
    ASSERT_TRUE(s.feasible);
    ASSERT_TRUE(s.bounded);
    EXPECT_NEAR(s.objective, -0.05, 1e-6);
    EXPECT_GT(s.stats.degenerate_pivots, 0);
  }
}

TEST(SparseSimplex, RefactorizationSurvivesLongRuns) {
  // A long difference-constraint chain forces enough pivots to cross the
  // refactorization interval several times; the optimum (the chain length)
  // pins the answer regardless.
  LpProblem p;
  constexpr int kVars = 400;
  p.num_vars = kVars;
  p.objective.assign(kVars, 0.0);
  p.objective.back() = 1.0;
  p.constraints.push_back({{{0, -1.0}}, -1.0});  // x0 >= 1
  for (int v = 1; v < kVars; ++v) {
    p.constraints.push_back({{{v - 1, 1.0}, {v, -1.0}}, -1.0});  // x_v >= x_{v-1} + 1
  }
  const LpSolution s = detail::solve_lp_primal(p);
  ASSERT_TRUE(s.feasible);
  ASSERT_TRUE(s.bounded);
  EXPECT_NEAR(s.objective, static_cast<double>(kVars), 1e-6);
  EXPECT_GT(s.stats.refactorizations, 0);
  // The dual crosses the interval as well, so its Forrest–Tomlin updates
  // and the pivot order's vacated positions are carried across several
  // refactorizations.
  const LpSolution dual = solve_lp(p);
  ASSERT_TRUE(dual.feasible);
  ASSERT_TRUE(dual.bounded);
  EXPECT_EQ(dual.objective, static_cast<double>(kVars));
  EXPECT_GE(dual.stats.refactorizations, 3);
  EXPECT_EQ(dual.stats.dual_fallbacks, 0);
}

TEST(SparseSimplex, PivotPathIsPinnedOnRetargetLibraries) {
  // The pivot path, pinned: solve_lp on leaf_retarget's round-1 LPs (the
  // 48-cell, 8-box libraries of seeds 1-8), and the primal fallback on the
  // 16- and 32-cell libraries bench_leaf_scaling sweeps. These counts and
  // objective bits move only with a deliberate change to the pivot path
  // (the refactor interval, the Markowitz order, the pricing or ratio-test
  // rules), which must re-record them and argue that every output stays
  // byte-identical. A change that only makes pivots cheaper leaves them as
  // they are. Objectives are printed with %.17g, so they round-trip.
  struct Pin {
    int iterations;
    int degenerate_pivots;
    int bland_pivots;
    int refactorizations;
    int nnz_refactorizations;
    double objective;
  };
  constexpr Pin kDual[] = {
      {1078, 593, 426, 10, 0, 2532.7720000000049}, {1057, 582, 359, 10, 0, 2551.8670000000075},
      {1071, 583, 390, 10, 0, 2512.7890000000066}, {1039, 567, 343, 10, 0, 2600.8860000000077},
      {1057, 581, 373, 10, 0, 2566.8600000000051}, {1066, 590, 397, 10, 0, 2539.8430000000048},
      {1074, 592, 404, 10, 0, 2534.8480000000077}, {1069, 593, 386, 10, 0, 2568.8500000000076},
  };
  const auto expect_pin = [](const LpSolution& s, const Pin& pin, const std::string& where) {
    ASSERT_TRUE(s.feasible && s.bounded) << where;
    EXPECT_EQ(s.stats.iterations, pin.iterations) << where;
    EXPECT_EQ(s.stats.degenerate_pivots, pin.degenerate_pivots) << where;
    EXPECT_EQ(s.stats.bland_pivots, pin.bland_pivots) << where;
    EXPECT_EQ(s.stats.refactorizations, pin.refactorizations) << where;
    EXPECT_EQ(s.stats.nnz_refactorizations, pin.nnz_refactorizations) << where;
    EXPECT_EQ(s.stats.dual_fallbacks, 0) << where;
    EXPECT_EQ(s.objective, pin.objective) << where;
  };
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    const SynthLeafLibrary lib = make_leaf_library(48, 8, seed);
    const LeafLpModel model = build_leaf_lp(lib.cells, lib.interfaces, lib.cell_names,
                                            lib.pitch_specs, CompactionRules::mosis());
    expect_pin(solve_lp(model.lp), kDual[seed - 1], "solve_lp, seed " + std::to_string(seed));
  }
  const std::pair<int, Pin> kPrimal[] = {
      {16, {1090, 292, 0, 10, 0, 813.30999999999858}},
      {32, {2187, 576, 0, 21, 0, 1671.5799999999972}},
  };
  for (const auto& [cells, pin] : kPrimal) {
    const SynthLeafLibrary lib = make_leaf_library(cells, 8, 7);
    const LeafLpModel model = build_leaf_lp(lib.cells, lib.interfaces, lib.cell_names,
                                            lib.pitch_specs, CompactionRules::mosis());
    expect_pin(detail::solve_lp_primal(model.lp), pin,
               "solve_lp_primal, " + std::to_string(cells) + " cells");
  }
}

}  // namespace
}  // namespace rsg::compact
