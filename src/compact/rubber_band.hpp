// The rubber-band post-pass (§6.4.2, Figure 6.8).
//
// Bellman–Ford "pushes all the objects in a layout as much to the left as
// they can go ... as if they are being attracted by a large magnet on the
// left", which minimizes the bounding box but introduces jogs: connected
// boxes that were aligned drift apart by up to the longest-path slack. The
// thesis asks for "an algorithm that tries to bring all objects close
// together as if they were all connected by rubber bands".
//
// Implementation: holding the compacted width fixed, compute each
// variable's feasible interval [leftmost, rightmost], then run coordinate
// descent — every variable repeatedly moves to the median of its alignment
// targets (its kConnect/kOrder partners offset by their original deltas),
// clamped to the interval its constraints currently allow. Monotone in the
// jog objective, terminates when no variable moves.
#pragma once

#include "compact/constraint_graph.hpp"

namespace rsg::compact {

struct RubberBandStats {
  int iterations = 0;
  std::int64_t jog_before = 0;
  std::int64_t jog_after = 0;
};

// Total jog: sum over kConnect constraints of the deviation between the
// current relative offset of the two edges and their offset in the original
// layout.
std::int64_t total_jog(const ConstraintSystem& system);

// Improves system.values in place without increasing the layout width.
// The slack intervals' upper bounds come from solve_rightmost_worklist.
RubberBandStats rubber_band(ConstraintSystem& system, int max_iterations = 64);

}  // namespace rsg::compact
