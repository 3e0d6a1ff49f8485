// The incremental x/y compaction engine.
//
// The scratch schedule (compact/xy_schedule.hpp with incremental = false)
// rebuilds the whole constraint system and cold-starts the solver on every
// pass, even when a late round moves a handful of boxes. This engine keeps
// persistent per-axis state across passes and redoes only what its input
// can change:
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
// `full_rebuild` is the escape hatch (every shard treated dirty every
// pass); `check_byte_identity` additionally builds the scratch stream each
// pass, width/anchor prefix included, and throws on any divergence — the
// mode the equivalence tests and suspicious production runs use.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "compact/flat_compactor.hpp"
#include "support/error.hpp"

namespace rsg::compact {

// Thrown by check_byte_identity when an incremental pass's constraint
// stream differs from a scratch build. Distinct from plain rsg::Error so
// the best-effort schedule can tell an ENGINE BUG (always fatal) apart
// from an infeasible axis (skippable): the diagnostic mode must fail
// loudly, never be recorded as "axis infeasible".
class IncrementalDivergence : public Error {
 public:
  explicit IncrementalDivergence(std::string message) : Error(std::move(message)) {}
};

struct IncrementalOptions {
  // Y bands per layer; <= 0 means one. The engine sweeps on the calling
  // thread, and every shard walks every box, so more bands cost more walks
  // and only buy finer reuse: one band was the fastest setting measured on
  // the bundled designs.
  int bands = 0;
  // Escape hatch: re-sweep every shard every pass (state is still kept, so
  // warm starts remain active).
  bool full_rebuild = false;
  // Debug mode: every pass also generates the constraint stream from
  // scratch and throws rsg::Error if the incremental stream differs.
  bool check_byte_identity = false;
};

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
// rules, options and stretchable mask are fixed for the instance — exactly
// the xy-schedule contract.
class IncrementalCompactor {
 public:
  IncrementalCompactor(const CompactionRules& rules, const FlatOptions& options,
                       const IncrementalOptions& incremental,
                       std::vector<bool> stretchable = {});

  // One x (y) pass: byte-identical in constraints and geometry to
  // compact_flat (compact_flat_y) on the same input. Throws rsg::Error on
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

  // TEST-ONLY fault injection: appends a bogus constraint to the axis's
  // cached system, simulating the state corruption check_byte_identity
  // exists to catch — the next pass on unchanged geometry reuses the cache
  // and the divergence check must throw. Production code never calls this
  // (the check is otherwise unfalsifiable: the engine is byte-identical by
  // construction, so its error path needs an injected fault to execute).
  void corrupt_cached_system_for_testing(bool y_axis);

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
  IncrementalOptions incremental_;
  std::vector<bool> stretchable_;
  AxisState x_;
  AxisState y_;
};

}  // namespace rsg::compact
