// The incremental x/y compaction engine: the passes of the flat schedule
// (compact/xy_schedule.hpp).
//
// A scratch pass (compact_flat) rebuilds the whole constraint system and
// cold-starts the solver, even when a late round moves a handful of boxes.
// This engine keeps persistent per-axis state across passes and redoes only
// what its input can change:
//
//   * The sweep is band-sharded (scanline.hpp): each (layer, y band) shard
//     stores its partner list. The engine keeps each axis's previous
//     input, and a box whose geometry changed dirties the shards its old
//     and its new window overlap — the moved box's own band plus the
//     spacing-radius neighbors, since windows carry the §6.4.1 shadow
//     margin. A pass re-sweeps only the dirty shards and splices the
//     stored partner lists of the clean ones back in. The merged emission
//     is byte-identical to a scratch build for every partition, so reuse
//     is a pure work saving.
//   * The width/anchor constraints are emitted once per axis: they depend
//     only on the box count, the stretchable flags, rigid widths and layer
//     minimum widths, none of which a schedule changes. A pass re-emits
//     only the pair constraints after them, and a pass where no box moved
//     reuses the whole cached system.
//   * Solves are warm-started from the previous pass's coordinates
//     (bellman_ford.hpp): the seeded fixpoint is verified as the exact
//     least solution and falls back to a cold solve when the seed
//     overshot, so the final geometry is always exactly the scratch
//     geometry.
//
// The test oracle (tests/oracle/scratch_schedule.hpp) checks every pass's
// constraint system, width/anchor prefix included, against a scratch
// generation, and the schedule's geometry against a scratch schedule.
#pragma once

#include <array>
#include <vector>

#include "compact/flat_compactor.hpp"

namespace rsg::compact {

// What one pass did with its shards — the schedule's telemetry source.
struct IncrementalPassStats {
  int shards_total = 0;
  int shards_reswept = 0;
  std::size_t partners_reswept = 0;  // partner entries regenerated by sweeps
  std::size_t partners_reused = 0;   // partner entries spliced from clean shards
  bool full_build = false;           // first pass on this axis
  std::vector<int> dirty_bands;      // re-swept band indices (union over layers)
};

// One compactor instance serves one alternating schedule: it owns the
// per-axis band partitions, shard caches and warm-start coordinates. The
// rules, options, stretchable mask and band count are fixed for the
// instance — exactly the xy-schedule contract.
class IncrementalCompactor {
 public:
  // `bands`: y bands per layer, the unit of reuse (<= 0 means one). The
  // engine sweeps on the calling thread, and every shard walks every box,
  // so more bands cost more walks and only buy finer reuse: one band was
  // the fastest setting measured on the bundled designs, and the schedule
  // runs it.
  IncrementalCompactor(const CompactionRules& rules, const FlatOptions& options,
                       std::vector<bool> stretchable = {}, int bands = 1);

  // One x (y) pass: byte-identical in constraints and geometry to
  // compact_flat on the same (transposed) input. Throws rsg::Error on
  // infeasible systems, leaving the shard cache valid for the next pass.
  FlatResult compact_x(const std::vector<LayerBox>& boxes);
  FlatResult compact_y(const std::vector<LayerBox>& boxes);

  const IncrementalPassStats& x_stats() const { return x_.stats; }
  const IncrementalPassStats& y_stats() const { return y_.stats; }

  // The band partitions (infinity-sentinel cut lists; y axis in transposed
  // space), fixed at each axis's first pass — exposed for the dirty-band
  // tests and telemetry.
  const std::vector<Coord>& x_band_cuts() const { return x_.cuts; }
  const std::vector<Coord>& y_band_cuts() const { return y_.cuts; }

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
    std::vector<LayerBox> previous;             // the last pass's normalized input
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

  FlatResult pass(AxisState& state, const std::vector<LayerBox>& boxes);

  CompactionRules rules_;
  FlatOptions options_;
  std::vector<bool> stretchable_;
  int bands_;
  AxisState x_;
  AxisState y_;
};

}  // namespace rsg::compact
