// Leaf-cell compaction (§6.1–§6.3) — the thesis's proposal for making the
// RSG technology-transportable.
//
// Instead of compacting assembled structures, compact the LIBRARY: the
// unknowns are the vertical box edges of each leaf cell plus one pitch
// variable λ per interface, and every instance of a cell shares one set of
// edge variables. Inter-cell constraints generated from an interface's pair
// layout fold through λ exactly as Figure 6.3 prescribes (the edge
// "4 -> 1' weighted z4" becomes "4 -> 1 weighted z4 - λa"), which both
// shrinks the unknown count (8 -> 5 in the figure's example) and forces all
// instances of a cell to share one geometry. Because edge weights now
// contain λ, Bellman–Ford no longer applies and the system is solved as a
// linear program (§6.3) with a user cost function over the pitches —
// weighted by expected replication factors, not by cell sizes (§6.2).
//
// The pipeline is split so the LP scaling benchmark and the LP suites can
// solve the model's LP on its own: build_leaf_lp() assembles the shared
// constraint system (through ConstraintSystemBuilder) and its LP view;
// solve_leaf_model() runs solve_lp, rounds, verifies, and rebuilds the
// geometry; compact_leaf_cells() is the two chained.
//
// Restrictions (documented §6.3 scope): compaction is one-dimensional in x;
// interfaces must be North-oriented with positive x pitch; leaf-cell boxes
// must sit at non-negative local x. compact_leaf_cells_y lifts the
// one-dimensionality the same way the flat path does — transpose the
// library, compact in x, transpose back — with the mirrored restrictions
// (positive y pitch, non-negative local y); compact/xy_schedule.hpp
// alternates the two into a leaf-aware x/y round.
//
// Every solve runs solve_lp: the dual simplex, which the componentwise
// nonnegative objective lets start dual-feasible from the all-slack basis,
// with its primal fallback.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "compact/constraint_builder.hpp"
#include "compact/design_rule_table.hpp"
#include "compact/simplex.hpp"
#include "iface/interface_table.hpp"
#include "layout/cell_table.hpp"

namespace rsg::compact {

struct PitchSpec {
  std::string cell_a;
  std::string cell_b;
  int interface_index = 1;
  // The cost weight of this pitch — "based on empirical estimates of what n
  // and m are expected to be" (§6.2). Larger = replicated more often.
  double replication_weight = 1.0;
};

struct LeafResult {
  // Compacted geometry per cell (x recomputed, y untouched).
  std::map<std::string, std::vector<LayerBox>> cells;
  // New pitch per PitchSpec, parallel to the input vector. Only the x
  // component is optimized; pitch_y preserves each interface's original y
  // offset for library reconstruction.
  std::vector<Coord> pitches;
  std::vector<Coord> original_pitches;
  std::vector<Coord> pitch_y;

  std::size_t variable_count = 0;           // folded: edges + pitches
  std::size_t unfolded_variable_count = 0;  // what per-instance edges would need
  std::size_t constraint_count = 0;
  double objective = 0.0;
  LpStats lp_stats;
  // Set by compact_leaf_cells_y: `pitches` are then the optimized Y pitches
  // and `pitch_y` the untouched x components. make_compacted_library reads
  // it to orient each rebuilt pitch vector.
  bool y_axis = false;
};

// One cell's shared edge variables and local geometry inside a LeafLpModel.
struct LeafCellVars {
  std::vector<LayerBox> boxes;
  std::vector<int> left_vars;   // per box
  std::vector<int> right_vars;
};

// The assembled leaf-compaction model: the folded constraint system, its LP
// view (objective + gauge pins included), and the bookkeeping needed to
// turn an LP solution back into a library.
struct LeafLpModel {
  ConstraintSystem system;
  LpProblem lp;
  std::map<std::string, LeafCellVars> cells;
  std::vector<int> pitch_ids;  // per PitchSpec
  std::vector<Coord> original_pitches;
  std::vector<Coord> pitch_y;
  std::size_t unfolded_variable_count = 0;
};

// `cell_names` lists the leaf cells whose geometry may change; every
// PitchSpec's interface must exist in `interfaces`. Boxes listed in
// `stretchable_layers` may shrink to minimum width (buses); all other boxes
// are rigid (devices).
LeafLpModel build_leaf_lp(const CellTable& cells, const InterfaceTable& interfaces,
                          const std::vector<std::string>& cell_names,
                          const std::vector<PitchSpec>& pitch_specs, const CompactionRules& rules,
                          double width_weight = 1e-3,
                          const std::vector<Layer>& stretchable_layers = {});

// Solves the model's LP (solve_lp), rounds to the integer grid (relaxing
// pitches upward if rounding broke a constraint), and rebuilds the
// per-cell geometry. Throws rsg::Error on infeasible systems.
//
// `warm` (optional) carries the optimal basis from one solve into the
// next. The engine matches it to the new model's rows by content, so a
// model that re-emits the same constraints in another order or with other
// weights (the leaf schedule's per-round re-solves) adopts it and skips
// most of its pivots. Pass an empty LpWarmStart on the first
// call and the SAME handle on every subsequent one; the engine falls back
// to a cold start (and says why in LpStats::warm_declined_*) whenever the
// carried rows do not match or the basis is singular or dual-infeasible.
LeafResult solve_leaf_model(const LeafLpModel& model, LpWarmStart* warm = nullptr);

// build_leaf_lp + solve_leaf_model.
LeafResult compact_leaf_cells(const CellTable& cells, const InterfaceTable& interfaces,
                              const std::vector<std::string>& cell_names,
                              const std::vector<PitchSpec>& pitch_specs,
                              const CompactionRules& rules, double width_weight = 1e-3,
                              const std::vector<Layer>& stretchable_layers = {},
                              LpWarmStart* warm = nullptr);

// Leaf y-compaction by the flat path's transposition trick: transpose every
// cell's geometry and every spec'd interface vector, run the x pipeline,
// transpose back. Mirrored restrictions: interfaces need a POSITIVE Y
// pitch and boxes non-negative local y. In the result, `pitches` are the
// optimized y pitches and `pitch_y` carries each interface's untouched x
// component (the exact mirror of the x path's bookkeeping).
LeafResult compact_leaf_cells_y(const CellTable& cells, const InterfaceTable& interfaces,
                                const std::vector<std::string>& cell_names,
                                const std::vector<PitchSpec>& pitch_specs,
                                const CompactionRules& rules, double width_weight = 1e-3,
                                const std::vector<Layer>& stretchable_layers = {},
                                LpWarmStart* warm = nullptr);

// Rebuilds a fresh cell table + interface table from a compaction result —
// "after the compaction is completed, it is possible to build a new sample
// layout for the new technology ... from the new cell definitions of the
// leaf cells and the new pitch parameters" (§6.3). Takes a result of
// either axis: LeafResult::y_axis says which component of each interface
// vector `pitches` holds.
void make_compacted_library(const LeafResult& result, const std::vector<PitchSpec>& pitch_specs,
                            CellTable& out_cells, InterfaceTable& out_interfaces);

}  // namespace rsg::compact
