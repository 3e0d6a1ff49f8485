// Generative property tests for §6.3's LP solver: seeded random instances
// spanning the shapes that break simplex implementations in practice —
// degenerate plateaus, unbounded rays, infeasible systems, and the
// near-unimodular difference-constraint matrices leaf compaction actually
// emits — asserting that solve_lp (the dual simplex), its primal fallback
// on its own, and the dense-tableau oracle agree on feasibility,
// boundedness and objective value on every single one. The harness is the
// example-driven validation idea of the ROADMAP: the specification ("every
// engine is the same function") is checked against a generated example
// population rather than hand-picked cases, in the spirit of `Generating
// Significant Examples for Conceptual Schema Validation`.
//
// Determinism: every instance derives from a fixed seed; there is no
// wall-clock or global entropy anywhere, so a failure reproduces by seed.
// CI additionally runs the compact label under `ctest --repeat
// until-fail:3` to screen for order/state flakiness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "compact/leaf_compactor.hpp"
#include "compact/simplex.hpp"
#include "compact/synth_design.hpp"
#include "oracle/dense_tableau.hpp"

namespace rsg::compact {
namespace {

struct EngineRun {
  const char* name;
  LpSolution solution;
};

// Solves `p` with the oracle, the primal fallback and solve_lp and
// cross-checks them; returns the dense solution for family-specific
// assertions.
LpSolution expect_engines_agree(const LpProblem& p, std::uint32_t seed, const char* family) {
  const EngineRun runs[] = {
      {"dense", oracle::solve_dense_tableau(p)},
      {"sparse-dantzig", detail::solve_lp_primal(p)},
      {"sparse-dual", solve_lp(p)},
  };
  const LpSolution& dense = runs[0].solution;
  for (const EngineRun& run : runs) {
    EXPECT_EQ(run.solution.feasible, dense.feasible)
        << family << " seed " << seed << " engine " << run.name;
    if (!dense.feasible || !run.solution.feasible) continue;
    EXPECT_EQ(run.solution.bounded, dense.bounded)
        << family << " seed " << seed << " engine " << run.name;
    if (!dense.bounded || !run.solution.bounded) continue;
    EXPECT_NEAR(run.solution.objective, dense.objective,
                1e-6 * (1.0 + std::abs(dense.objective)))
        << family << " seed " << seed << " engine " << run.name;
  }
  // Stated directly for the two sparse loops: the dual simplex reports
  // infeasible exactly when the primal does.
  EXPECT_EQ(runs[2].solution.feasible, runs[1].solution.feasible)
      << family << " seed " << seed;
  return dense;
}

std::mt19937 rng_for(std::uint32_t seed) { return std::mt19937(seed * 2654435761u + 17u); }

// Family 1: dense random LPs, nonnegative costs (always bounded), mixed
// rhs signs so phase 1 / the dual repair loop both engage. Feasibility is
// up to the draw — both outcomes appear across the seed range.
TEST(LpPropertyTest, RandomDenseInstancesAgreeAcrossEngines) {
  for (std::uint32_t seed = 0; seed < 150; ++seed) {
    auto rng = rng_for(seed);
    std::uniform_int_distribution<int> dim(1, 10);
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
    expect_engines_agree(p, seed, "random-dense");
  }
}

// Family 2: mixed-sign costs over box-ish constraints — the shapes where
// the dual's working bounds and unboundedness detection earn their keep.
// Roughly a third of the draws are unbounded (a negative-cost column no
// row touches).
TEST(LpPropertyTest, MixedSignCostsAgreeIncludingUnbounded) {
  int unbounded_seen = 0;
  for (std::uint32_t seed = 0; seed < 120; ++seed) {
    auto rng = rng_for(seed ^ 0xB0B0B0B0u);
    std::uniform_int_distribution<int> dim(2, 8);
    std::uniform_real_distribution<double> coeff(0.5, 3.0);
    std::uniform_real_distribution<double> cost(-2.0, 2.0);
    std::uniform_int_distribution<int> cover(0, 2);
    LpProblem p;
    p.num_vars = dim(rng);
    for (int j = 0; j < p.num_vars; ++j) p.objective.push_back(cost(rng));
    for (int j = 0; j < p.num_vars; ++j) {
      // cover == 0 leaves column j out of every row: unbounded whenever
      // its cost drew negative.
      if (cover(rng) == 0) continue;
      LpConstraint c;
      c.terms.emplace_back(j, coeff(rng));
      if (j + 1 < p.num_vars) c.terms.emplace_back(j + 1, coeff(rng) - 2.0);
      c.rhs = coeff(rng) * 4.0;
      p.constraints.push_back(std::move(c));
    }
    const LpSolution dense = expect_engines_agree(p, seed, "mixed-cost");
    if (dense.feasible && !dense.bounded) ++unbounded_seen;
  }
  EXPECT_GT(unbounded_seen, 10);  // the family actually exercises the ray path
}

// Family 3: known-infeasible systems (x <= a and x >= a + gap, folded into
// random padding rows). Every engine must report infeasible — in
// particular dual <=> primal.
TEST(LpPropertyTest, InfeasibleInstancesAgreeAcrossEngines) {
  for (std::uint32_t seed = 0; seed < 80; ++seed) {
    auto rng = rng_for(seed ^ 0x1BADB002u);
    std::uniform_int_distribution<int> dim(1, 6);
    std::uniform_real_distribution<double> coeff(-2.0, 2.0);
    std::uniform_real_distribution<double> gap(0.5, 5.0);
    LpProblem p;
    p.num_vars = dim(rng);
    for (int j = 0; j < p.num_vars; ++j) p.objective.push_back(std::abs(coeff(rng)));
    const int pinned = static_cast<int>(seed) % p.num_vars;
    const double a = std::abs(coeff(rng));
    p.constraints.push_back({{{pinned, 1.0}}, a});               // x <= a
    p.constraints.push_back({{{pinned, -1.0}}, -(a + gap(rng))});  // x >= a + gap
    const int extra = dim(rng);
    for (int i = 0; i < extra; ++i) {
      LpConstraint c;
      for (int j = 0; j < p.num_vars; ++j) {
        const double v = coeff(rng);
        if (std::abs(v) > 0.8) c.terms.emplace_back(j, v);
      }
      c.rhs = std::abs(coeff(rng)) + 1.0;  // padding rows stay satisfiable
      p.constraints.push_back(std::move(c));
    }
    const LpSolution dense = expect_engines_agree(p, seed, "infeasible");
    EXPECT_FALSE(dense.feasible) << "seed " << seed;
  }
}

// Family 4: degenerate plateaus — many rows tight at the origin (zero
// rhs), duplicated rows, and zero-cost ties. The anti-cycling guards of
// every engine have to survive these; the objective is pinned by one
// non-degenerate row per instance.
TEST(LpPropertyTest, DegenerateInstancesTerminateAndAgree) {
  for (std::uint32_t seed = 0; seed < 80; ++seed) {
    auto rng = rng_for(seed ^ 0xDE6E4EA7u);
    std::uniform_int_distribution<int> dim(3, 9);
    std::uniform_int_distribution<int> pick(0, 2);
    LpProblem p;
    const int n = dim(rng);
    p.num_vars = n;
    p.objective.assign(static_cast<std::size_t>(n), 0.0);
    p.objective.back() = -1.0;  // maximize the chain head
    for (int i = 0; i + 1 < n; ++i) {
      // x_{n-1} <= x_i, all tight at the origin; duplicates at random.
      p.constraints.push_back({{{n - 1, 1.0}, {i, -1.0}}, 0.0});
      if (pick(rng) == 0) p.constraints.push_back({{{n - 1, 1.0}, {i, -1.0}}, 0.0});
      p.constraints.push_back({{{i, 1.0}}, 1.0 + pick(rng)});  // x_i <= 1..3
    }
    p.constraints.push_back({{{n - 1, 1.0}}, 1.0});  // pins the optimum at -1
    const LpSolution dense = expect_engines_agree(p, seed, "degenerate");
    ASSERT_TRUE(dense.feasible && dense.bounded) << "seed " << seed;
    EXPECT_NEAR(dense.objective, -1.0, 1e-7) << "seed " << seed;
  }
}

// Family 5: near-unimodular difference-constraint systems — integer +-1
// coefficients and integer bounds, the exact matrix class leaf compaction
// emits. All arithmetic is exact here, so the agreement bar is EQUALITY,
// and the dual simplex must clear every instance with zero phase-1 pivots
// and zero fallbacks (its start-basis claim, fuzzed).
TEST(LpPropertyTest, NearUnimodularChainsAgreeBitForBitAndDualSkipsPhaseOne) {
  for (std::uint32_t seed = 0; seed < 120; ++seed) {
    auto rng = rng_for(seed ^ 0x5EAFC311u);
    std::uniform_int_distribution<int> dim(2, 24);
    std::uniform_int_distribution<int> weight(1, 9);
    std::uniform_int_distribution<int> pick(0, 3);
    LpProblem p;
    const int n = dim(rng);
    p.num_vars = n;
    for (int j = 0; j < n; ++j) {
      p.objective.push_back(pick(rng) == 0 ? 0.0 : static_cast<double>(weight(rng)));
    }
    p.constraints.push_back({{{0, -1.0}}, -static_cast<double>(weight(rng))});  // x0 >= w
    for (int v = 1; v < n; ++v) {
      // x_v >= x_{v-1} + w, plus occasional long-range and ceiling rows.
      p.constraints.push_back(
          {{{v - 1, 1.0}, {v, -1.0}}, -static_cast<double>(weight(rng))});
      if (pick(rng) == 0 && v >= 2) {
        p.constraints.push_back(
            {{{v - 2, 1.0}, {v, -1.0}}, -static_cast<double>(weight(rng) + 3)});
      }
    }
    p.constraints.push_back({{{n - 1, 1.0}}, 200.0});  // global ceiling: feasible, bounded
    const LpSolution dense = oracle::solve_dense_tableau(p);
    const LpSolution dantzig = detail::solve_lp_primal(p);
    const LpSolution dual = solve_lp(p);
    ASSERT_TRUE(dense.feasible && dense.bounded) << "seed " << seed;
    EXPECT_EQ(dantzig.objective, dense.objective) << "seed " << seed;
    EXPECT_EQ(dual.objective, dense.objective) << "seed " << seed;
    EXPECT_EQ(dual.stats.phase1_pivots, 0) << "seed " << seed;
    EXPECT_EQ(dual.stats.dual_fallbacks, 0) << "seed " << seed;
  }
}

// Family 6: bounded-variable LPs with finite upper bounds ACTIVE
// at the optimum — the bounded-variable ratio test's home turf. Every
// negative-cost column gets a finite integer bound (so instances are
// bounded by construction, never via working bounds), coefficients are
// +-1 integers and bounds/rhs integers, so the agreement bar is EQUALITY:
// the dual solves the bounds natively while dense / sparse-primal solve
// the row-augmented equivalent, and all three must land on the identical
// objective.
TEST(LpPropertyTest, BoundedVariableInstancesAgreeWithBoundsActiveAtOptimum) {
  int feasible_seen = 0;
  int bound_active_seen = 0;
  for (std::uint32_t seed = 0; seed < 120; ++seed) {
    auto rng = rng_for(seed ^ 0xB07DEDu);
    std::uniform_int_distribution<int> dim(2, 16);
    std::uniform_int_distribution<int> cost(-3, 5);
    std::uniform_int_distribution<int> bound(2, 8);
    std::uniform_int_distribution<int> weight(1, 6);
    std::uniform_int_distribution<int> pick(0, 2);
    LpProblem p;
    const int n = dim(rng);
    p.num_vars = n;
    for (int j = 0; j < n; ++j) {
      const int c = cost(rng);
      p.objective.push_back(static_cast<double>(c));
      // A negative cost must rest on a USER bound for the instance to stay
      // bounded; nonnegative columns draw a finite bound some of the time
      // so the at-upper machinery sees both kinds.
      p.upper.push_back(c < 0 || pick(rng) == 0 ? static_cast<double>(bound(rng) + 2)
                                                : kLpUnbounded);
    }
    p.constraints.push_back({{{0, -1.0}}, -static_cast<double>(weight(rng))});  // x0 >= w
    for (int v = 1; v < n; ++v) {
      // Difference rows against the box: x_v >= x_{v-1} + w collides with
      // x_v <= u_v often enough that a healthy slice of draws is
      // infeasible — which every engine must agree on too.
      if (pick(rng) != 0) {
        p.constraints.push_back(
            {{{v - 1, 1.0}, {v, -1.0}}, -static_cast<double>(weight(rng) - 3)});
      }
    }
    const LpSolution dense = expect_engines_agree(p, seed, "bounded-variable");
    if (!dense.feasible || !dense.bounded) continue;
    ++feasible_seen;
    // All-integer +-1 data: the native-bounds dual and the row-augmented
    // dense oracle must agree EXACTLY, not just within tolerance.
    const LpSolution dual = solve_lp(p);
    EXPECT_EQ(dual.objective, dense.objective) << "seed " << seed;
    for (int j = 0; j < n; ++j) {
      if (p.upper[static_cast<std::size_t>(j)] != kLpUnbounded &&
          dense.x[static_cast<std::size_t>(j)] >= p.upper[static_cast<std::size_t>(j)] - 1e-9) {
        ++bound_active_seen;
        break;
      }
    }
  }
  // The family must actually exercise its claim: plenty of feasible draws,
  // and on most of them some finite bound carries the optimum.
  EXPECT_GT(feasible_seen, 30);
  EXPECT_GT(bound_active_seen, 20);
}

// Family 7: warm-start chains — solve, perturb one bound, re-solve
// with the carried basis vs cold, and the two must be indistinguishable in
// outcome: identical objective (exact, integer data), a solution feasible
// against every row, and the cross-engine agreement holds on the perturbed
// instance too. The chains are the near-unimodular class the leaf schedule
// re-solves each round; perturbing an rhs keeps the carried basis
// dual-feasible (duals depend only on the costs), so the ensemble must
// also show the handle being ACCEPTED, not just attempted.
TEST(LpPropertyTest, WarmStartChainsMatchColdAcrossEngines) {
  int accepted = 0;
  long warm_pivots = 0;
  long cold_pivots = 0;
  for (std::uint32_t seed = 0; seed < 80; ++seed) {
    auto rng = rng_for(seed ^ 0x3A37ED5u);
    std::uniform_int_distribution<int> dim(3, 20);
    std::uniform_int_distribution<int> weight(1, 9);
    std::uniform_int_distribution<int> pick(0, 3);
    LpProblem p;
    const int n = dim(rng);
    p.num_vars = n;
    for (int j = 0; j < n; ++j) {
      p.objective.push_back(pick(rng) == 0 ? 0.0 : static_cast<double>(weight(rng)));
    }
    p.constraints.push_back({{{0, -1.0}}, -static_cast<double>(weight(rng))});
    for (int v = 1; v < n; ++v) {
      p.constraints.push_back(
          {{{v - 1, 1.0}, {v, -1.0}}, -static_cast<double>(weight(rng))});
    }
    p.constraints.push_back({{{n - 1, 1.0}}, 400.0});  // ceiling: feasible, bounded

    LpWarmStart warm;
    const LpSolution first = solve_lp(p, &warm);
    ASSERT_TRUE(first.feasible && first.bounded) << "seed " << seed;
    ASSERT_TRUE(warm.valid()) << "seed " << seed;

    // Perturb one chain bound (an rhs): the next round's problem, one
    // bound change away, exactly the leaf schedule's shape.
    LpProblem p2 = p;
    const std::size_t row = static_cast<std::size_t>(seed) % (p2.constraints.size() - 1);
    p2.constraints[row].rhs -= 1.0;  // tighten: x_row's gap grows by 1

    const LpSolution warm_run = solve_lp(p2, &warm);
    const LpSolution cold_run = solve_lp(p2);
    const LpSolution dense = expect_engines_agree(p2, seed, "warm-chain");
    ASSERT_TRUE(dense.feasible && dense.bounded) << "seed " << seed;
    ASSERT_TRUE(warm_run.feasible && cold_run.feasible) << "seed " << seed;
    EXPECT_EQ(warm_run.objective, cold_run.objective) << "seed " << seed;
    EXPECT_EQ(warm_run.objective, dense.objective) << "seed " << seed;
    EXPECT_EQ(warm_run.stats.warm_attempted, 1) << "seed " << seed;
    accepted += warm_run.stats.warm_accepted;
    warm_pivots += warm_run.stats.iterations;
    cold_pivots += cold_run.stats.iterations;

    // Basis feasibility of the warm-started answer, checked directly
    // against every row and bound of the perturbed problem.
    for (std::size_t i = 0; i < p2.constraints.size(); ++i) {
      double lhs = 0.0;
      for (const auto& [var, coeff] : p2.constraints[i].terms) {
        lhs += coeff * warm_run.x[static_cast<std::size_t>(var)];
      }
      EXPECT_LE(lhs, p2.constraints[i].rhs + 1e-7) << "seed " << seed << " row " << i;
    }
    for (int j = 0; j < n; ++j) {
      EXPECT_GE(warm_run.x[static_cast<std::size_t>(j)], -1e-7) << "seed " << seed;
    }
  }
  // The carried bases must be genuinely adopted across the ensemble, and
  // adopting them must pay: a warm re-solve starts primal-near-feasible,
  // so the total pivot spend sits well below the cold baseline's.
  EXPECT_GT(accepted, 60);
  EXPECT_LT(warm_pivots * 2, cold_pivots);
}

// Family 8: warm starts that survive row reordering. The leaf schedule's
// confirming round re-emits the previous round's rows in another order, so
// a carried basis must find its rows by content, not position. Each base
// LP (seeded chains, and the LPs of 8- and 16-cell leaf libraries) is
// solved once for a handle, then re-solved from a copy of it after
//   (a) a row shuffle,
//   (b) a shuffle plus one perturbed rhs,
//   (c) a shuffle of rows that share terms but differ in rhs (equal keys).
// The basis must be adopted every time, (a) in zero pivots, and every
// answer must match the cold and dense-tableau ones and satisfy every row
// and bound. A handle whose row terms changed must decline for exactly
// that reason and still return the cold optimum.
struct PermutedBase {
  std::string name;
  LpProblem lp;
  bool integral;  // all-integer data: objectives must agree exactly
};

LpProblem warm_chain(std::uint32_t seed) {
  auto rng = rng_for(seed ^ 0x9E37C4A1u);
  std::uniform_int_distribution<int> dim(3, 20);
  std::uniform_int_distribution<int> weight(1, 9);
  std::uniform_int_distribution<int> pick(0, 3);
  LpProblem p;
  const int n = dim(rng);
  p.num_vars = n;
  for (int j = 0; j < n; ++j) {
    p.objective.push_back(pick(rng) == 0 ? 0.0 : static_cast<double>(weight(rng)));
  }
  p.constraints.push_back({{{0, -1.0}}, -static_cast<double>(weight(rng))});
  for (int v = 1; v < n; ++v) {
    p.constraints.push_back({{{v - 1, 1.0}, {v, -1.0}}, -static_cast<double>(weight(rng))});
    if (pick(rng) == 0 && v >= 2) {
      p.constraints.push_back(
          {{{v - 2, 1.0}, {v, -1.0}}, -static_cast<double>(weight(rng) + 3)});
    }
  }
  p.constraints.push_back({{{n - 1, 1.0}}, 400.0});  // ceiling: feasible, bounded
  return p;
}

std::vector<PermutedBase> permuted_bases() {
  std::vector<PermutedBase> bases;
  for (std::uint32_t seed = 0; seed < 40; ++seed) {
    bases.push_back({"chain " + std::to_string(seed), warm_chain(seed), true});
  }
  const std::pair<int, std::uint32_t> leaf_libraries[] = {{8, 1}, {8, 2}, {16, 1}};
  for (const auto& [cells, seed] : leaf_libraries) {
    const SynthLeafLibrary lib = make_leaf_library(cells, 8, seed);
    bases.push_back({"leaf " + std::to_string(cells) + "/" + std::to_string(seed),
                     build_leaf_lp(lib.cells, lib.interfaces, lib.cell_names, lib.pitch_specs,
                                   CompactionRules::mosis())
                         .lp,
                     false});
  }
  return bases;
}

// Every row and bound of `p` holds at `x`.
void expect_satisfies(const LpProblem& p, const LpSolution& s, const std::string& where) {
  ASSERT_EQ(s.x.size(), static_cast<std::size_t>(p.num_vars)) << where;
  for (std::size_t i = 0; i < p.constraints.size(); ++i) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : p.constraints[i].terms) {
      lhs += coeff * s.x[static_cast<std::size_t>(var)];
    }
    EXPECT_LE(lhs, p.constraints[i].rhs + 1e-7) << where << " row " << i;
  }
  for (int j = 0; j < p.num_vars; ++j) {
    EXPECT_GE(s.x[static_cast<std::size_t>(j)], -1e-7) << where << " var " << j;
    if (!p.upper.empty()) {
      EXPECT_LE(s.x[static_cast<std::size_t>(j)], p.upper[static_cast<std::size_t>(j)] + 1e-7)
          << where << " var " << j;
    }
  }
}

void expect_same_objective(double got, double want, bool integral, const std::string& where) {
  if (integral) {
    EXPECT_EQ(got, want) << where;
  } else {
    EXPECT_NEAR(got, want, 1e-9 * (1.0 + std::abs(want))) << where;
  }
}

TEST(LpPropertyTest, PermutedRowWarmStartsAdoptAndMatchCold) {
  int duplicate_pivots = 0;
  std::uint32_t shuffle_seed = 0;
  for (const PermutedBase& base : permuted_bases()) {
    auto rng = rng_for(++shuffle_seed ^ 0x5EED5u);
    const auto shuffled = [&rng](LpProblem p) {
      std::shuffle(p.constraints.begin(), p.constraints.end(), rng);
      return p;
    };
    // Re-solves `p` from a copy of `carried` and checks the answer against
    // the cold and dense ones; returns the warm solve.
    const auto resolve = [&](const LpProblem& p, const LpWarmStart& carried,
                             const std::string& where) {
      LpWarmStart handle = carried;
      const LpSolution warm = solve_lp(p, &handle);
      const LpSolution cold = solve_lp(p);
      const LpSolution dense = oracle::solve_dense_tableau(p);
      EXPECT_TRUE(warm.feasible && warm.bounded && cold.feasible && dense.feasible) << where;
      expect_same_objective(warm.objective, cold.objective, base.integral, where + " vs cold");
      expect_same_objective(warm.objective, dense.objective, base.integral, where + " vs dense");
      expect_satisfies(p, warm, where);
      EXPECT_TRUE(handle.valid()) << where;
      return warm;
    };

    LpWarmStart carried;
    const LpSolution first = solve_lp(base.lp, &carried);
    ASSERT_TRUE(first.feasible && first.bounded && carried.valid()) << base.name;

    // (a) Same rows, new order: the carried vertex is already optimal.
    const LpSolution a = resolve(shuffled(base.lp), carried, base.name + " (a)");
    EXPECT_EQ(a.stats.warm_attempted, 1) << base.name;
    EXPECT_EQ(a.stats.warm_accepted, 1) << base.name;
    EXPECT_EQ(a.stats.iterations, 0) << base.name;
    expect_same_objective(a.objective, first.objective, base.integral, base.name + " (a)");

    // (b) New order and one loosened rhs: the keys leave the rhs out.
    LpProblem perturbed = base.lp;
    perturbed.constraints[shuffle_seed % perturbed.constraints.size()].rhs += 1.0;
    const LpSolution b = resolve(shuffled(perturbed), carried, base.name + " (b)");
    EXPECT_EQ(b.stats.warm_accepted, 1) << base.name;

    // (c) Looser copies of every third row share its key; a shuffle can
    // swap which copy each carried slack lands on.
    LpProblem duplicated = base.lp;
    for (std::size_t i = 0; i < base.lp.constraints.size(); i += 3) {
      LpConstraint copy = base.lp.constraints[i];
      copy.rhs += 1.0 + static_cast<double>(i % 2);
      duplicated.constraints.push_back(std::move(copy));
    }
    LpWarmStart carried_dup;
    ASSERT_TRUE(solve_lp(duplicated, &carried_dup).feasible) << base.name;
    const LpSolution c = resolve(shuffled(duplicated), carried_dup, base.name + " (c)");
    EXPECT_EQ(c.stats.warm_accepted, 1) << base.name;
    duplicate_pivots += c.stats.iterations;

    // Changed terms: one row scaled by 2 (the same half-space, new terms).
    LpProblem rescaled = shuffled(base.lp);
    LpConstraint& row = rescaled.constraints[shuffle_seed % rescaled.constraints.size()];
    for (auto& term : row.terms) term.second *= 2.0;
    row.rhs *= 2.0;
    LpWarmStart stale = carried;
    const LpSolution declined = solve_lp(rescaled, &stale);
    const LpSolution cold = solve_lp(rescaled);
    EXPECT_EQ(declined.stats.warm_attempted, 1) << base.name;
    EXPECT_EQ(declined.stats.warm_accepted, 0) << base.name;
    EXPECT_EQ(declined.stats.warm_declined_rows, 1) << base.name;
    EXPECT_EQ(declined.stats.iterations, cold.stats.iterations) << base.name;
    EXPECT_EQ(declined.objective, cold.objective) << base.name;
  }
  // Equal keys pair up in position order, so some shuffles hand a carried
  // slack to its row's looser twin and the dual repairs the difference.
  EXPECT_GT(duplicate_pivots, 0);
}

// The other two decline reasons. Dual: a cost change that makes the
// carried optimum dual-infeasible (the chain head now wants to rise to
// its ceiling). Singular: a hand-built handle naming two identical
// columns. Both must report the reason and return the cold optimum.
TEST(LpPropertyTest, WarmStartDeclinesSayWhy) {
  for (std::uint32_t seed = 0; seed < 20; ++seed) {
    const LpProblem p = warm_chain(seed);
    LpWarmStart carried;
    ASSERT_TRUE(solve_lp(p, &carried).feasible) << "seed " << seed;

    LpProblem recosted = p;
    double total = 0.0;
    for (const double c : p.objective) total += c;
    recosted.objective.back() = -(total + 1.0);
    LpWarmStart handle = carried;
    const LpSolution dual_declined = solve_lp(recosted, &handle);
    const LpSolution cold = solve_lp(recosted);
    EXPECT_EQ(dual_declined.stats.warm_attempted, 1) << "seed " << seed;
    EXPECT_EQ(dual_declined.stats.warm_declined_dual, 1) << "seed " << seed;
    EXPECT_EQ(dual_declined.stats.warm_accepted, 0) << "seed " << seed;
    EXPECT_EQ(dual_declined.objective, cold.objective) << "seed " << seed;
    EXPECT_EQ(dual_declined.objective, oracle::solve_dense_tableau(recosted).objective)
        << "seed " << seed;

    // Column n copies column 0 in every row; basis slots holding slacks
    // are handed to whichever of the twins is not basic yet.
    LpProblem twins = p;
    const int twin = twins.num_vars++;
    twins.objective.push_back(1.0);
    for (LpConstraint& row : twins.constraints) {
      const std::vector<std::pair<int, double>> terms = row.terms;
      for (const auto& [var, coeff] : terms) {
        if (var == 0) row.terms.emplace_back(twin, coeff);
      }
    }
    LpWarmStart twin_handle;
    const LpSolution twin_cold = solve_lp(twins, &twin_handle);
    ASSERT_TRUE(twin_cold.feasible && twin_handle.valid()) << "seed " << seed;
    for (const int column : {0, twin}) {
      if (std::find(twin_handle.basis.begin(), twin_handle.basis.end(), column) !=
          twin_handle.basis.end()) {
        continue;
      }
      const auto slack = std::find_if(twin_handle.basis.begin(), twin_handle.basis.end(),
                                      [&](int j) { return j >= twins.num_vars; });
      ASSERT_NE(slack, twin_handle.basis.end()) << "seed " << seed;
      *slack = column;
    }
    const LpSolution singular = solve_lp(twins, &twin_handle);
    EXPECT_EQ(singular.stats.warm_attempted, 1) << "seed " << seed;
    EXPECT_EQ(singular.stats.warm_declined_singular, 1) << "seed " << seed;
    EXPECT_EQ(singular.stats.warm_accepted, 0) << "seed " << seed;
    EXPECT_EQ(singular.objective, twin_cold.objective) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rsg::compact
