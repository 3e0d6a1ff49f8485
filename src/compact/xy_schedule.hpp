// The alternating x/y compaction schedules.
//
// The thesis's compactor is one-dimensional: "we will restrict ourselves to
// one dimensional compaction in the x dimension" (§6.3), with y handled by
// transposition. A single x pass then y pass (max_rounds = 1) leaves area
// on the table — pulling boxes down changes which boxes share a band, so a
// second x pass can reclaim width the first could not see. Both schedules
// below alternate the two axes in one round loop (xy_schedule.cpp) until a
// round leaves their state unchanged (the schedule's fixpoint; extents
// alone can plateau a round before the geometry does) or a hard round cap —
// the scheduling layer the §6.4 experiments left open. The loop owns the
// per-round policy: the cap, the frozen and converged stops, the
// checkpoint hook, and the round-boundary fault point and cancel polls; a
// schedule supplies only its passes.
//
// The FLAT schedule runs its passes through a FlatAxisPasses
// (compact/incremental.hpp): by default one IncrementalCompactor, which
// re-sweeps only what moved boxes touch and warm-starts each solve. The
// test oracle (tests/oracle/scratch_schedule.hpp) runs the same loop over
// scratch passes, every pass rebuilt by compact_flat, and over
// stream-checked engine passes.
// The LEAF library gets the same treatment (§6.1–§6.3 meets the schedule):
// compact_leaf_schedule alternates compact_leaf_cells (x) with
// compact_leaf_cells_y (the transposed pipeline) over a pitch-spec list
// partitioned by axis — specs with a positive x pitch feed the x pass,
// specs with a positive y pitch the y pass, both-positive specs feed both —
// rebuilding the library between passes until a round leaves every pitch
// unchanged.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "compact/flat_compactor.hpp"
#include "compact/leaf_compactor.hpp"
#include "support/cancel.hpp"

namespace rsg::compact {

class FlatAxisPasses;
struct RoundStats;

// The complete schedule state after round `rounds_done` — everything a
// later process needs to continue the loop as if it never stopped. The
// geometry a resumed schedule produces is bit-for-bit the uninterrupted
// run's (every pass is exact, so the boxes after round k determine the
// boxes after round k+1); per-round COST telemetry may differ, since a
// fresh incremental engine re-sweeps bands the uninterrupted run reused.
// io/checkpoint.hpp serializes this as the RSGC file format.
struct XyCheckpoint {
  int rounds_done = 0;
  bool converged = false;
  bool x_infeasible = false;
  bool y_infeasible = false;
  Coord width_before = 0;
  Coord height_before = 0;
  std::vector<LayerBox> boxes;       // geometry after round rounds_done
  std::vector<bool> stretchable;     // the mask the schedule ran with
  std::vector<RoundStats> round_stats;
};

struct XyScheduleOptions {
  // Hard cap; each round is one x pass followed by one y pass.
  int max_rounds = 8;
  // Stop as soon as a round leaves the geometry unchanged. Disable to
  // always run max_rounds (the benchmarks do, for stable work per run).
  bool stop_when_converged = true;
  // Layouts that violate their own design rules (§6.4's rigid devices
  // closer than the spacing table allows) make a pass's constraint system
  // infeasible. Best effort skips that axis for the round instead of
  // throwing — the generator pipeline uses this so any layout may request
  // compaction — and records the skip in the result. A round where BOTH
  // axes are infeasible cannot make progress and terminates the schedule
  // early with converged = false. A caller error is not skipped: a
  // stretchable mask whose size differs from the geometry (the resumed
  // one, on resume) throws before the first round either way.
  bool best_effort = false;
  // Checkpoint/restart. The sink (if set) receives the full schedule state
  // after EVERY completed round; `resume` (if set) restores that state and
  // the loop continues from round rounds_done + 1, ignoring the `boxes`
  // argument. io/checkpoint.hpp wires both to RSGC checkpoint files.
  std::function<void(const XyCheckpoint&)> checkpoint_sink;
  const XyCheckpoint* resume = nullptr;
  // Cooperative cancellation: polled at every round boundary AFTER the
  // checkpoint sink has fired for the completed round, so an abandoned run
  // always leaves a resumable checkpoint behind. Fires as StatusError
  // (DEADLINE_EXCEEDED for an expired deadline, CANCELLED for an explicit
  // cancel — e.g. the serving core draining on SIGTERM).
  const CancelToken* cancel = nullptr;
};

// Per-round telemetry: what each axis pass did and what it cost. This is
// what makes a converged schedule distinguishable from a capped one from
// the outside (rsg_cli --compact-stats prints it).
struct RoundStats {
  int round = 0;                // 1-based
  Coord width_delta = 0;        // width reclaimed by this round's x pass
  Coord height_delta = 0;       // height reclaimed by this round's y pass
  bool x_skipped = false;       // best effort: the axis was infeasible
  bool y_skipped = false;
  std::size_t constraints_emitted = 0;  // both passes
  std::size_t partners_reswept = 0;     // partner entries regenerated by sweeps
  std::size_t partners_reused = 0;      //   spliced from clean bands
  std::size_t solve_pops = 0;           // SolveStats::pops, both passes
  bool warm_x = false;                  // warm start verified exact for the axis
  bool warm_y = false;
  double wall_ms = 0.0;
};

struct XyScheduleResult {
  std::vector<LayerBox> boxes;
  Coord width_before = 0;
  Coord width_after = 0;
  Coord height_before = 0;
  Coord height_after = 0;
  int rounds = 0;           // rounds actually run
  bool converged = false;   // the last round left the geometry unchanged
  bool x_infeasible = false;  // best effort: some x pass was skipped
  bool y_infeasible = false;  // best effort: some y pass was skipped
  std::vector<RoundStats> round_stats;  // one entry per round run
};

XyScheduleResult compact_flat_schedule(const std::vector<LayerBox>& boxes,
                                       const CompactionRules& rules,
                                       const FlatOptions& options = {},
                                       const XyScheduleOptions& schedule = {},
                                       const std::vector<bool>& stretchable = {});

// The same schedule over caller-supplied passes (the one above runs an
// IncrementalCompactor built from its rules, options and mask). `passes`
// must have been built with `stretchable`, which the schedule checks
// against the geometry and records in its checkpoints.
XyScheduleResult compact_flat_schedule(const std::vector<LayerBox>& boxes, FlatAxisPasses& passes,
                                       const XyScheduleOptions& schedule,
                                       const std::vector<bool>& stretchable);

// --- the leaf-aware x/y round (§6.1–§6.3 under the schedule) ---------------

// The leaf schedule runs at most 4 rounds (leaf rounds converge much
// faster than flat ones — the library couples globally through the
// pitches), stops at the first converged round, weighs cell width by 1e-3
// against the pitches, and keeps every box rigid.
struct LeafXyOptions {
  // Carry each axis's optimal basis into the next round's solve. The
  // engine matches the carried basis to the new LP's rows by content, so a
  // round whose LP holds the previous round's rows in another order, or
  // under other bounds, adopts it; the convergence-confirming round
  // re-solves in zero pivots. A round whose row set changed starts cold
  // (LeafRoundStats::{x,y}_lp warm_accepted and warm_declined_* say which
  // happened). The solved objective is identical either way — only the
  // pivot path (and, on LPs with tied optima, which optimal vertex
  // reports) changes. Off, the schedule is the cold oracle of the
  // warm-start tests and bench gate.
  bool warm_start = true;
};

// Per-round LP telemetry — the leaf analogue of RoundStats, reported by
// compaction_demo and asserted by the leaf schedule tests.
struct LeafRoundStats {
  int round = 0;   // 1-based
  bool x_ran = false;  // false when the round had no specs on that axis
  bool y_ran = false;
  LpStats x_lp;
  LpStats y_lp;
  double x_objective = 0.0;
  double y_objective = 0.0;
};

struct LeafXyResult {
  // The compacted library: cell geometry plus every spec'd interface with
  // both axis components updated — ready to serve as the next technology's
  // sample library (§6.3).
  CellTable cells;
  InterfaceTable interfaces;
  int rounds = 0;
  // The last round left every pitch vector unchanged, and either every box
  // too or neither axis's objective moved (box positions may still wander
  // inside the tied optimal face — each pass's tie-break depends on the
  // other axis's coordinates, so pitch/objective stability IS the
  // schedule's fixpoint).
  bool converged = false;
  LpStats lp_total;        // summed over every pass of every round
  std::vector<LeafRoundStats> round_stats;
};

// Alternates leaf x and y compaction to a library fixpoint. Every spec must
// have a positive pitch on at least one axis; specs positive on both feed
// both passes (the y pass re-optimizes y under the x pass's fresh pitches).
// Throws rsg::Error on infeasible systems, like the underlying compactors.
LeafXyResult compact_leaf_schedule(const CellTable& cells, const InterfaceTable& interfaces,
                                   const std::vector<std::string>& cell_names,
                                   const std::vector<PitchSpec>& pitch_specs,
                                   const CompactionRules& rules,
                                   const LeafXyOptions& options = {});

}  // namespace rsg::compact
