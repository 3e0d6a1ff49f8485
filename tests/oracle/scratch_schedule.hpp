// The flat x/y schedule's baselines. The production schedule
// (compact/xy_schedule.hpp) runs every pass through the incremental engine
// (compact/incremental.hpp); these are what it is checked and measured
// against: the scratch schedule, every pass rebuilt by compact_flat on the
// (for y, transposed) geometry, and the stream check, which compares an
// engine pass's constraint system with a from-scratch generation. Both
// schedules are FlatAxisPasses run by compact_flat_schedule's own round
// loop, so they share its skip, stop and convergence rules and honour
// `checkpoint_sink`, `resume` and `cancel` exactly as it does. Test code:
// built only with the suites or the benches, never linked into the product
// libraries.
#pragma once

#include <string>
#include <vector>

#include "compact/flat_compactor.hpp"
#include "compact/xy_schedule.hpp"

namespace rsg::compact::oracle {

// y compaction by transposition: swap axes, compact_flat, swap back.
FlatResult compact_flat_y(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                          const FlatOptions& options = {},
                          const std::vector<bool>& stretchable = {});

// The stream check. Empty when `system` equals a fresh add_box_variables +
// generate_constraints on `input`, normalized as a pass normalizes it
// (normalized_compaction_boxes): the same variables with the same initial
// abscissas, and the same constraints in the same order, width/anchor
// prefix included. Otherwise it describes the first difference. `input`
// is the pass's input in the pass's own axis space, so a y pass's is the
// transposed geometry.
std::string stream_divergence(const ConstraintSystem& system, const std::vector<LayerBox>& input,
                              const CompactionRules& rules, const FlatOptions& options = {},
                              const std::vector<bool>& stretchable = {});

// compact_flat_schedule over scratch passes (compact_flat,
// compact_flat_y). Each pass reports whether it kept its input and the
// output's extent from the geometry alone, so the production schedule's
// deltas and convergence are checked against facts the engine did not
// compute. It has no partner counts.
XyScheduleResult scratch_flat_schedule(const std::vector<LayerBox>& boxes,
                                       const CompactionRules& rules,
                                       const FlatOptions& options = {},
                                       const XyScheduleOptions& schedule = {},
                                       const std::vector<bool>& stretchable = {});

// compact_flat_schedule over one IncrementalCompactor with `bands` bands
// per layer, the engine it runs by default at one band. Every pass's
// constraint system, a skipped infeasible pass's included, goes through
// the stream check; the first divergence throws std::logic_error, which no
// best-effort skip catches.
XyScheduleResult checked_flat_schedule(const std::vector<LayerBox>& boxes,
                                       const CompactionRules& rules,
                                       const FlatOptions& options = {},
                                       const XyScheduleOptions& schedule = {},
                                       const std::vector<bool>& stretchable = {}, int bands = 1);

// Empty when two schedules did the same work round for round: the same
// skips, deltas, constraint and partner counts, solve pops and warm
// starts (wall time aside). Otherwise it names the first difference.
std::string round_stats_divergence(const XyScheduleResult& a, const XyScheduleResult& b);

}  // namespace rsg::compact::oracle
