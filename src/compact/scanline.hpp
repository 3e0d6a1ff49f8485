// Constraint generation (§6.4.1).
//
// Implements the "correct scan line method" of Figure 6.7: a vertical scan
// line sweeps left to right holding, per layer, what a viewer on the line
// looking LEFT would see. Constraints connect what the viewer sees to the
// boxes newly reaching the line; hidden edges never enter the profile, so
// fragmented layouts (Figure 6.5) are not overconstrained — the property
// bench_fig65_fragmentation measures against the naive pairwise generator.
// That baseline and the pre-scaling reference generator (all-pairs net
// finding, linear-scan profile) are test-only code in tests/oracle; the
// reference shares layer_window, add_width_and_anchor and the pair
// emission (detail, below) with this generator, so a rule change lands in
// one place.
//
// Emitted constraint kinds:
//   kWidth    R_i - L_i >= width (original width, or the layer minimum for
//             boxes marked stretchable — the §6.4.1 bus/device sizing hook)
//   kSpacing  L_b - R_a >= spacing(layers) for interacting, disjoint boxes
//             whose y ranges come within the spacing of each other
//   kConnect  R_a - L_b >= 0 and L_b - L_a >= 0 for same-layer boxes that
//             touch or overlap (electrical continuity must survive)
//   kOrder    f - e >= 0 for every originally-ordered edge pair of
//             OVERLAPPING interacting layers (transistor topology: poly
//             stays across diffusion)
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compact/constraint_graph.hpp"
#include "compact/design_rule_table.hpp"

namespace rsg::compact {

struct CompactionBox {
  LayerBox geometry;
  bool stretchable = false;  // may shrink to the layer's minimum width
  int left_var = -1;         // filled by add_boxes
  int right_var = -1;
  int pitch = -1;            // leaf compaction: instance pitch variable
  int pitch_coeff = 0;       //   X_global = X_var + pitch_coeff * λ
};

// Creates the two edge variables for every box (unless already assigned —
// leaf compaction shares variables between instance copies).
void add_box_variables(ConstraintSystem& system, std::vector<CompactionBox>& boxes);

// The visibility scan-line generator of Figure 6.7, the only one the
// compactors run. The visibility profile is a blocked sorted array (a
// two-level B-tree of at most 128 segments per block), and nets come from
// the sweep's own partner lists (one union test per partner, plus a
// forward scan per zero-height box), so generation is O((n + p) log n) in
// the box count n and the number p of partners the sweep reports, each of
// which emits at most four constraints, whatever order the boxes arrive
// in.
//
// Batches of at least kBandedGenerationMinBoxes boxes sweep `threads` y
// bands (below) on as many std::async tasks; smaller ones sweep one band
// serially, since thread spawn costs more than the sweep there. `threads`
// <= 0 means one per hardware core. The emitted stream is byte-identical
// for every band count, so `threads` is a throughput knob only.
inline constexpr std::size_t kBandedGenerationMinBoxes = 2048;

void generate_constraints(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                          const CompactionRules& rules, int threads = 1);

// --- band-sharded sweeps -------------------------------------------------
//
// The visibility profile is pointwise in y: what a viewer sees at height y
// depends only on boxes whose y extent covers y. Partitioning the y axis
// into bands therefore decomposes each layer's sweep into independent
// shards — queries and inserts clipped to the band — whose partner sets
// union back to exactly the full-layer sweep's. That is both the
// parallelism unit beyond per-layer sharding and the reuse unit of the
// incremental x/y schedule (compact/incremental.hpp): a shard whose
// participating boxes did not move re-contributes its stored partner list
// without being re-swept.

// One (profile layer, y band) shard's contribution: partner runs keyed by
// the querying box index (stable across rounds), in sweep order.
struct SweepShard {
  std::vector<std::size_t> query_boxes;  // boxes with >= 1 partner, sweep order
  std::vector<std::size_t> run_offsets;  // size query_boxes.size() + 1
  std::vector<std::size_t> partners;     // concatenated partner box indices
};

// Sorted cut list partitioning y into at most `bands` bands by box-count
// quantiles: band k covers [cuts[k], cuts[k+1]); the first and last cut are
// +-infinity sentinels so every window lands in a band.
std::vector<Coord> band_cuts(const std::vector<CompactionBox>& boxes, int bands);

// The thread-count convention every sweep path shares: <= 0 means one per
// hardware core, and the result is always at least 1.
int resolve_sweep_threads(int threads);

// A permutation of box indices, 32 bits each (a box's edge variables are
// ints, so its index fits).
using SweepOrder = std::vector<std::uint32_t>;

// The sweep order: left edge, then right edge, ties by box index. The
// incremental engine keeps it across passes and re-places only the boxes
// whose x extent changed.
SweepOrder sweep_order(const std::vector<CompactionBox>& boxes);

// True when box a precedes box b in the sweep order.
inline bool sweep_before(const std::vector<CompactionBox>& boxes, std::uint32_t a,
                         std::uint32_t b) {
  const Box& p = boxes[a].geometry.box;
  const Box& q = boxes[b].geometry.box;
  if (p.lo.x != q.lo.x) return p.lo.x < q.lo.x;
  if (p.hi.x != q.hi.x) return p.hi.x < q.hi.x;
  return a < b;
}

// The y window box `box` opens onto profile layer `layer` (its y extent
// grown by the §6.4.1 shadow margin), or false when the layers neither
// match nor interact. This is the participation predicate shared by the
// band sweep and the incremental engine's dirty detection: a box affects a
// shard exactly when its window overlaps the band.
bool layer_window(const CompactionBox& box, int layer, const CompactionRules& rules, Coord& y0,
                  Coord& y1);

// Runs the listed shard sweeps (layer-major indices: layer * bands + band
// into `shards`) strided across `threads` std::async tasks.
// generate_constraints passes every index; the incremental engine passes
// only the dirty ones, on one thread.
void sweep_shards(const std::vector<CompactionBox>& boxes, const SweepOrder& order,
                  const CompactionRules& rules, const std::vector<Coord>& cuts,
                  const std::vector<std::size_t>& shard_indices, std::vector<SweepShard>& shards,
                  int threads);

// Per box: the width constraint (and its upper bound for rigid boxes),
// plus the anchor against the left wall. A batch's stream is these
// constraints followed by the pair constraints. They depend only on the
// box count, the stretchable flags, rigid widths and layer minimum widths,
// so the incremental engine emits them once per axis and re-emits only the
// pairs.
void add_width_and_anchor(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                          const CompactionRules& rules);

// Emits the pair constraints merged from the shard partner lists: per box
// in sweep order the partners are gathered and sorted, and each is emitted
// once, so any shard partition of the same geometry produces the
// byte-identical stream. The shards must cover every (layer, band) of one
// partition: the net labels are read off the merged partner lists.
void emit_pair_constraints(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                           const SweepOrder& order, const CompactionRules& rules,
                           const std::vector<const SweepShard*>& shards);

// The pair emission the generator shares with the test oracle's reference
// generator (tests/oracle).
namespace detail {

// The constraints between box ib and a box ia its window sees: kConnect
// for touching boxes of one net (net[i] labels box i's electrical net),
// none for the rest of a net, kOrder for overlapping interacting boxes,
// and kSpacing for disjoint ones closer in y than their spacing.
void emit_pair_constraint(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                          std::size_t ia, std::size_t ib, const CompactionRules& rules,
                          const std::vector<std::size_t>& net);

}  // namespace detail

}  // namespace rsg::compact
