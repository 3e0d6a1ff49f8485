// The incremental x/y compaction engine: the passes of the flat schedule
// (compact/xy_schedule.hpp), behind the FlatAxisPasses interface the
// schedule's round loop runs.
//
// A scratch pass (compact_flat) rebuilds the whole constraint system and
// cold-starts the solver, even when a late round moves a handful of boxes.
// This engine keeps persistent per-axis state across passes and pays for
// what its input changed, in proportion to the boxes that moved since the
// axis's last pass.
//
// What an axis keeps across passes:
//
//   * One resident box store: the last pass's input, normalized (leftmost
//     edge on the anchor wall) and in the axis's own frame (transposed for
//     y), with the stretchable flags and the edge variables 2i, 2i+1. A
//     pass reads its input once: it transposes (y) and normalizes each box,
//     compares it with the store, and updates the store in place. No copy
//     of the input, transposed or normalized, is made, and the result is
//     written straight back in the caller's frame.
//   * The sweep order of the store, as 32-bit box indices. Only boxes whose
//     x extent changed can move in it: they are sorted and merged back in,
//     ties broken by box index. More than an eighth of the boxes moving, a
//     changed box set or a changed layer falls back to a full radix sort,
//     unless one linear check finds the kept order still sorted.
//   * The band-sharded sweep (scanline.hpp): each (layer, y band) shard
//     stores its partner list. A box whose geometry changed dirties the
//     shards its old and its new window overlap: the moved box's own band
//     plus the spacing-radius neighbors, since windows carry the §6.4.1
//     shadow margin. The windows come from a table, built once per engine
//     from layer_window, of each box layer's (profile layer, margin)
//     pairs; at one band a window's shard is its layer's. A pass re-sweeps
//     only the dirty shards and splices the stored partner lists of the
//     clean ones back in. The merged emission is byte-identical to a
//     scratch build for every partition, so reuse is a pure work saving.
//   * The constraint system. The width/anchor constraints are emitted once
//     per axis: they depend only on the box count, the stretchable flags,
//     rigid widths and layer minimum widths, none of which a schedule
//     changes. A pass re-emits only the pair constraints after them, and
//     refreshes the initial abscissas (the §6.4.2 seeding order keys on
//     them) of the boxes whose x extent changed. A pass where no box moved
//     reuses the whole cached system.
//   * The previous solution, as the warm seed: solves are warm-started
//     (bellman_ford.hpp) when the seed satisfies every constraint of the
//     new system, a check that also stands for the warm phase's first
//     relaxation sweep. The seeded fixpoint is verified as the exact least
//     solution and falls back to a cold solve when the seed overshot, so
//     the final geometry is always exactly the scratch geometry.
//
// What a pass recomputes: the normalization shift (one read of the
// input), the dirty shards' sweeps, the pair emission, the solve, and the
// output. The store is the geometry the sweeps read, so a pass makes no
// per-box copy of its input, and the per-box state kept across passes is
// the store (64 B) and the order entry (4 B): peak RSS stays below what a
// kept copy of the last input plus a per-pass normalized copy would take.
//
// The test oracle (tests/oracle/scratch_schedule.hpp) checks every pass's
// constraint system, width/anchor prefix and initial abscissas included,
// against a scratch generation, and the schedule's geometry against a
// scratch schedule: both are FlatAxisPasses run by the same round loop.
#pragma once

#include <array>
#include <vector>

#include "compact/flat_compactor.hpp"

namespace rsg::compact {

// What one pass did — the schedule's telemetry source.
struct IncrementalPassStats {
  int shards_total = 0;
  int shards_reswept = 0;
  std::size_t partners_reswept = 0;  // partner entries regenerated by sweeps
  std::size_t partners_reused = 0;   // partner entries spliced from clean shards
  bool full_build = false;           // first pass on this axis
  std::vector<int> dirty_bands;      // re-swept band indices (union over layers)
  // Boxes whose normalized geometry differs from the axis's last input
  // (every box on a full build).
  std::size_t boxes_moved = 0;
  // How the sweep order followed: boxes whose x extent changed merged into
  // the kept order, or a full sort (the first pass, a changed box set or
  // layer, or too many moved boxes in an order no longer sorted).
  std::size_t order_merged = 0;
  bool order_sorted = false;
  // What the pass did to its input, for the schedule's round telemetry:
  // whether every output box equals its input box, and the output's
  // extent on the pass's axis (right edge minus left edge). Set only when
  // the solve succeeded.
  bool geometry_kept = false;
  Coord extent_after = 0;
};

// The passes a flat x/y schedule runs, one per axis per round. run()
// compacts `boxes` in place along one axis (y by transposition) and throws
// rsg::Error when that axis's system is infeasible, leaving `boxes` as it
// was. stats() describes the axis's last pass: its partner counts even
// when the pass threw, the rest only when it ran. The engine below is the
// production implementation; the test oracle substitutes scratch and
// stream-checked passes, which is why this is an interface.
class FlatAxisPasses {
 public:
  virtual FlatResult run(bool y_axis, std::vector<LayerBox>& boxes) = 0;
  virtual const IncrementalPassStats& stats(bool y_axis) const = 0;
};

// One compactor instance serves one alternating schedule: it owns the
// per-axis box stores, band partitions, shard caches and warm-start
// coordinates. The rules, options, stretchable mask and band count are
// fixed for the instance — exactly the xy-schedule contract.
class IncrementalCompactor final : public FlatAxisPasses {
 public:
  // `bands`: y bands per layer, the unit of reuse (<= 0 means one). The
  // engine sweeps on the calling thread, and every shard walks every box,
  // so more bands cost more walks and only buy finer reuse: one band was
  // the fastest setting measured on the bundled designs, and the schedule
  // runs it.
  IncrementalCompactor(const CompactionRules& rules, const FlatOptions& options,
                       std::vector<bool> stretchable = {}, int bands = 1);

  // One pass in place, as the schedule runs it: byte-identical in
  // constraints and geometry to compact_flat on the same (transposed)
  // input; the result's `boxes` stays empty. A pass that throws leaves the
  // engine valid for the next pass: the store then holds its input.
  FlatResult run(bool y_axis, std::vector<LayerBox>& boxes) override;
  const IncrementalPassStats& stats(bool y_axis) const override {
    return y_axis ? y_.stats : x_.stats;
  }

  // The same passes on a copy, the output in the result's `boxes`.
  FlatResult compact_x(const std::vector<LayerBox>& boxes);
  FlatResult compact_y(const std::vector<LayerBox>& boxes);

  // The x band partition (an infinity-sentinel cut list), fixed at the
  // axis's first pass — exposed for the dirty-band tests.
  const std::vector<Coord>& x_band_cuts() const { return x_.cuts; }

  // Each axis's constraint system from its last pass, in the axis's own
  // space (transposed for y) — what the test oracle compares with a
  // scratch generation.
  const ConstraintSystem& x_system() const { return x_.system; }
  const ConstraintSystem& y_system() const { return y_.system; }

 private:
  struct AxisState {
    bool initialized = false;
    std::vector<Coord> cuts;
    std::vector<SweepShard> shards;             // layer-major: layer * bands + band
    std::vector<CompactionBox> boxes;           // the resident store (above)
    SweepOrder order;                           // the store's sweep order
    std::array<bool, kNumLayers> has_member{};  // layers with boxes
    std::vector<Coord> warm;                    // previous pass's solution values
    // The assembled constraint system of the last pass: `prefix`
    // width/anchor constraints (0 = not emitted yet), then the pairs. A
    // moved box always dirties its own layer's shards, so an all-clean pass
    // proves the geometry identical to the previous pass's — the cached
    // system IS this pass's system, and the emission (variables, net
    // finding, merge) is skipped wholesale.
    ConstraintSystem system;
    std::size_t prefix = 0;
    bool system_valid = false;
    IncrementalPassStats stats;
  };

  // A window a box opens onto a profile layer: its y extent grown by
  // `margin` (layer_window).
  struct Window {
    int layer;
    Coord margin;
  };

  // Brings the kept sweep order up to date with the store; `x_moved` holds
  // the boxes whose x extent changed (ascending), `resort` forces a full
  // sort.
  void update_order(AxisState& state, std::vector<std::uint32_t>& x_moved, bool resort);

  CompactionRules rules_;
  FlatOptions options_;
  std::vector<bool> stretchable_;
  int bands_;
  std::array<std::vector<Window>, kNumLayers> windows_;  // by box layer
  AxisState x_;
  AxisState y_;
};

}  // namespace rsg::compact
