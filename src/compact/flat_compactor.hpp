// Flat one-dimensional compaction — the experimental compactor of §6.4,
// assembled from the scan-line constraint generator, the worklist
// Bellman–Ford solver and the rubber-band post-pass. Compacts in x; y
// coordinates are fixed (horizontal edges "shrink or expand in response to
// the displacement of the vertical edges", §6.3), and y is compacted by the
// same pass on the transposed layout. The x/y alternation, one round or
// many, is compact_flat_schedule (compact/xy_schedule.hpp), whose passes the
// incremental engine (compact/incremental.hpp) runs.
#pragma once

#include <vector>

#include "compact/bellman_ford.hpp"
#include "compact/constraint_builder.hpp"
#include "compact/design_rule_table.hpp"
#include "compact/rubber_band.hpp"
#include "compact/scanline.hpp"

namespace rsg::compact {

struct FlatOptions {
  bool apply_rubber_band = false;
  bool mark_all_stretchable = false;
  // compact_flat's constraint-generation threads (see
  // generate_constraints): 0 = one per hardware core, 1 = serial.
  // Byte-identical either way. The incremental engine, which runs the x/y
  // schedule, ignores it: it sweeps on the calling thread.
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

// Throws rsg::Error unless `stretchable` is empty or has one entry per
// box of a `boxes`-box geometry.
void check_stretchable_mask(const std::vector<bool>& stretchable, std::size_t boxes);

// compact_flat's pass prologue: normalizes the geometry (leftmost edge to
// the anchor wall), records the starting width, and builds the
// CompactionBox batch with the stretchable marking applied. The
// incremental engine normalizes in its own single read of the input; the
// test oracle's stream check runs this function, so the engine's
// byte-identical-to-compact_flat contract cannot drift unseen.
std::vector<CompactionBox> normalized_compaction_boxes(const std::vector<LayerBox>& boxes,
                                                       const FlatOptions& options,
                                                       const std::vector<bool>& stretchable,
                                                       Coord& width_before);

// Axis swap used by the y-by-transposition paths outside the incremental
// engine (the leaf y pass, the test oracle's scratch y pass, tests):
// [lo.y, lo.x, hi.y, hi.x] per box.
std::vector<LayerBox> transposed_boxes(const std::vector<LayerBox>& boxes);

}  // namespace rsg::compact
