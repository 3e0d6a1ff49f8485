// Flat one-dimensional compaction — the experimental compactor of §6.4,
// assembled from the scan-line constraint generator, the Bellman–Ford
// solver and the rubber-band post-pass. Compacts in x; y coordinates are
// fixed (horizontal edges "shrink or expand in response to the displacement
// of the vertical edges", §6.3).
#pragma once

#include <vector>

#include "compact/bellman_ford.hpp"
#include "compact/constraint_builder.hpp"
#include "compact/design_rule_table.hpp"
#include "compact/rubber_band.hpp"
#include "compact/scanline.hpp"

namespace rsg::compact {

// Every pass solves with the worklist longest-path solvers
// (bellman_ford.hpp); the pass-based ones are test oracles only.
struct FlatOptions {
  bool apply_rubber_band = false;
  bool naive_constraints = false;  // the Figure 6.5 overconstraining baseline
  bool mark_all_stretchable = false;
  // Constraint-generation threads (see BuilderOptions::threads): 0 = one
  // per hardware core, 1 = serial. Byte-identical either way.
  int generation_threads = 0;
};

struct FlatResult {
  std::vector<LayerBox> boxes;
  Coord width_before = 0;
  Coord width_after = 0;
  std::size_t constraint_count = 0;
  std::size_t variable_count = 0;
  SolveStats solve;
  RubberBandStats rubber;
};

// `stretchable` entries (parallel to `boxes`, may be empty = all rigid)
// mark boxes allowed to shrink to their layer's minimum width — the
// cell-tagged bus/device sizing hook of §6.4.1.
FlatResult compact_flat(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                        const FlatOptions& options = {},
                        const std::vector<bool>& stretchable = {});

// The shared pass prologue of compact_flat and the incremental engine:
// normalizes the geometry (leftmost edge to the anchor wall), records the
// starting width, and builds the CompactionBox batch with the stretchable
// marking applied. Kept in one place so the incremental engine's
// byte-identical-to-compact_flat contract cannot drift.
std::vector<CompactionBox> normalized_compaction_boxes(const std::vector<LayerBox>& boxes,
                                                       const FlatOptions& options,
                                                       const std::vector<bool>& stretchable,
                                                       Coord& width_before);

// Axis swap used by every y-by-transposition path (compact_flat_y, the
// incremental engine, tests): [lo.y, lo.x, hi.y, hi.x] per box.
std::vector<LayerBox> transposed_boxes(const std::vector<LayerBox>& boxes);

// y compaction by transposition: swap axes, compact in x, swap back. The
// thesis's compactor is one-dimensional (§6.3, "we will restrict ourselves
// to one dimensional compaction in the x dimension"); alternating the two
// is the classic schedule its one-dimensional framing implies.
FlatResult compact_flat_y(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                          const FlatOptions& options = {},
                          const std::vector<bool>& stretchable = {});

struct XyResult {
  std::vector<LayerBox> boxes;
  Coord width_before = 0;
  Coord width_after = 0;
  Coord height_before = 0;
  Coord height_after = 0;
};

// One x pass followed by one y pass — a single round of the alternating
// schedule in compact/xy_schedule.hpp, which also handles convergence-
// driven multi-round alternation.
XyResult compact_flat_xy(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                         const FlatOptions& options = {},
                         const std::vector<bool>& stretchable = {});

}  // namespace rsg::compact
