#include "compact/xy_schedule.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "compact/incremental.hpp"
#include "layout/flatten.hpp"
#include "support/error.hpp"
#include "support/fault_injection.hpp"

namespace rsg::compact {

namespace {

// The leaf schedule's fixed settings (LeafXyOptions documents them).
constexpr int kLeafMaxRounds = 4;
constexpr double kLeafWidthWeight = 1e-3;

struct Extents {
  Coord width = 0;
  Coord height = 0;
};

Extents extents_of(const std::vector<LayerBox>& boxes) {
  if (boxes.empty()) return {};
  Coord min_x = boxes.front().box.lo.x;
  Coord max_x = boxes.front().box.hi.x;
  Coord min_y = boxes.front().box.lo.y;
  Coord max_y = boxes.front().box.hi.y;
  for (const LayerBox& lb : boxes) {
    min_x = std::min(min_x, lb.box.lo.x);
    max_x = std::max(max_x, lb.box.hi.x);
    min_y = std::min(min_y, lb.box.lo.y);
    max_y = std::max(max_y, lb.box.hi.y);
  }
  return {max_x - min_x, max_y - min_y};
}

// How a round ended, as its passes report it.
struct RoundEnd {
  bool frozen = false;     // every axis was skipped: no later round can move anything
  bool unchanged = false;  // the round left the schedule's state as it found it
};

// The x/y round loop of every schedule. It runs round(k) for k = rounds + 1
// up to `cap` and owns the policy between rounds:
//   * a frozen round stops the loop and never counts as converged;
//   * an unchanged round is converged, and stops the loop under
//     stop_when_converged; `converged` always describes the last round run;
//   * persist() runs after every round (the flat schedule's checkpoint);
//   * `cancel` is polled before the first round and after every persist,
//     so an abandoned run always leaves its last completed round saved.
// `last` is how the round before the loop ended, for a resumed schedule: a
// loop that stopped there runs no further round.
template <class Round, class Persist>
void run_rounds(int& rounds, bool& converged, RoundEnd last, int cap, bool stop_when_converged,
                const CancelToken* cancel, Round&& round, Persist&& persist) {
  const auto stops = [&](const RoundEnd& end) {
    return end.frozen || (converged && stop_when_converged);
  };
  // A signal raised before any round runs still rejects the work up front:
  // "expired before it started" must not pay for a full round first.
  if (cancel != nullptr) cancel->check("x/y schedule start");
  if (stops(last)) return;
  while (rounds < cap) {
    const RoundEnd end = round(rounds + 1);
    ++rounds;
    converged = !end.frozen && end.unchanged;
    persist();
    if (stops(end)) return;
    // Test hook: hold the schedule for `param` ms (default 50) at the round
    // boundary so deadline/cancel tests can deterministically interrupt a
    // run BETWEEN rounds — after the persist, before the poll.
    int stall_ms = 0;
    if (fault::fired("xy_schedule.round_stall", &stall_ms)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms > 0 ? stall_ms : 50));
    }
    if (cancel != nullptr) cancel->check(("x/y schedule round " + std::to_string(rounds)).c_str());
  }
}

}  // namespace

XyScheduleResult compact_flat_schedule(const std::vector<LayerBox>& boxes,
                                       const CompactionRules& rules, const FlatOptions& options,
                                       const XyScheduleOptions& schedule,
                                       const std::vector<bool>& stretchable) {
  // The incremental engine keeps per-axis band/warm state alive across the
  // whole schedule.
  IncrementalCompactor engine(rules, options, stretchable);
  return compact_flat_schedule(boxes, engine, schedule, stretchable);
}

XyScheduleResult compact_flat_schedule(const std::vector<LayerBox>& boxes, FlatAxisPasses& passes,
                                       const XyScheduleOptions& schedule,
                                       const std::vector<bool>& stretchable) {
  XyScheduleResult result;
  result.boxes = boxes;
  const Extents before = extents_of(boxes);
  result.width_before = before.width;
  result.height_before = before.height;

  // Resume: restore the whole loop state from the checkpoint and continue
  // at the next round. The `boxes` argument is ignored by design — the
  // checkpointed geometry IS the loop state.
  RoundEnd last;
  if (schedule.resume != nullptr) {
    const XyCheckpoint& ck = *schedule.resume;
    result.boxes = ck.boxes;
    result.width_before = ck.width_before;
    result.height_before = ck.height_before;
    result.x_infeasible = ck.x_infeasible;
    result.y_infeasible = ck.y_infeasible;
    result.converged = ck.converged;
    result.round_stats = ck.round_stats;
    result.rounds = ck.rounds_done;
    last.frozen = !ck.round_stats.empty() && ck.round_stats.back().x_skipped &&
                  ck.round_stats.back().y_skipped;
  }

  // A mask that does not fit the geometry (say a checkpoint of another
  // design) is a caller error, not an infeasible axis: checked here, before
  // best effort can skip the passes it would fail.
  check_stretchable_mask(stretchable, result.boxes.size());

  // One round: an x pass, then a y pass, each compacting result.boxes in
  // place. Under best effort an infeasible axis (rigid geometry violating
  // its own spacing rules) keeps the current geometry for the round
  // instead of propagating the error. The round's facts come from what the
  // passes report: a pass's width_before is its input's extent on its
  // axis, and its extent_after the output's; a pass moves only its own
  // axis's coordinates, so the round left the geometry unchanged exactly
  // when each pass that ran kept its input.
  using Clock = std::chrono::steady_clock;
  const auto round = [&](int k) {
    RoundStats stats;
    stats.round = k;
    const auto t0 = Clock::now();
    RoundEnd end{/*frozen=*/true, /*unchanged=*/true};
    for (const bool y_axis : {false, true}) {
      std::optional<FlatResult> pass;
      try {
        pass = passes.run(y_axis, result.boxes);
      } catch (const Error&) {
        if (!schedule.best_effort) throw;
        (y_axis ? result.y_infeasible : result.x_infeasible) = true;
        (y_axis ? stats.y_skipped : stats.x_skipped) = true;
      }
      // A pass that threw still swept: its partner counts are set before
      // its solve throws, and they count.
      const IncrementalPassStats& report = passes.stats(y_axis);
      stats.partners_reswept += report.partners_reswept;
      stats.partners_reused += report.partners_reused;
      if (!pass) continue;
      end.frozen = false;
      end.unchanged = end.unchanged && report.geometry_kept;
      (y_axis ? stats.height_delta : stats.width_delta) = pass->width_before - report.extent_after;
      (y_axis ? stats.warm_y : stats.warm_x) = pass->solve.warm_accepted;
      stats.constraints_emitted += pass->constraint_count;
      stats.solve_pops += pass->solve.pops;
    }
    stats.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    result.round_stats.push_back(stats);
    return end;
  };
  const auto persist = [&] {
    if (!schedule.checkpoint_sink) return;
    XyCheckpoint ck;
    ck.rounds_done = result.rounds;
    ck.converged = result.converged;
    ck.x_infeasible = result.x_infeasible;
    ck.y_infeasible = result.y_infeasible;
    ck.width_before = result.width_before;
    ck.height_before = result.height_before;
    ck.boxes = result.boxes;
    ck.stretchable = stretchable;
    ck.round_stats = result.round_stats;
    schedule.checkpoint_sink(ck);
  };
  run_rounds(result.rounds, result.converged, last, schedule.max_rounds,
             schedule.stop_when_converged, schedule.cancel, round, persist);

  const Extents after = extents_of(result.boxes);
  result.width_after = after.width;
  result.height_after = after.height;
  return result;
}

namespace {

// The schedule's working copy of a leaf library: flattened per-cell
// geometry plus the current pitch vector of every spec'd interface —
// cheap to snapshot for the convergence test and to materialize into the
// tables a pass consumes.
struct LeafLibraryState {
  std::map<std::string, std::vector<LayerBox>> geometry;
  std::map<std::tuple<std::string, std::string, int>, Point> vectors;

  bool operator==(const LeafLibraryState&) const = default;

  CellTable cells() const {
    CellTable table;
    for (const auto& [name, boxes] : geometry) {
      Cell& cell = table.create(name);
      for (const LayerBox& lb : boxes) cell.add_box(lb.layer, lb.box);
    }
    return table;
  }

  InterfaceTable interfaces() const {
    InterfaceTable table;
    for (const auto& [key, vector] : vectors) {
      table.declare(std::get<0>(key), std::get<1>(key), std::get<2>(key),
                    Interface{vector, Orientation::kNorth});
    }
    return table;
  }
};

}  // namespace

LeafXyResult compact_leaf_schedule(const CellTable& cells, const InterfaceTable& interfaces,
                                   const std::vector<std::string>& cell_names,
                                   const std::vector<PitchSpec>& pitch_specs,
                                   const CompactionRules& rules, const LeafXyOptions& options) {
  if (pitch_specs.empty()) {
    throw Error("leaf schedule: no pitch specs (use compact_leaf_cells for a pitch-free pass)");
  }
  LeafLibraryState state;
  for (const PitchSpec& spec : pitch_specs) {
    const Interface iface = interfaces.get(spec.cell_a, spec.cell_b, spec.interface_index);
    if (!(iface.orientation == Orientation::kNorth)) {
      throw Error("leaf schedule handles North-oriented interfaces only");
    }
    if (iface.vector.x <= 0 && iface.vector.y <= 0) {
      throw Error("leaf schedule: interface between '" + spec.cell_a + "' and '" + spec.cell_b +
                  "' has no positive pitch on either axis");
    }
    state.vectors[{spec.cell_a, spec.cell_b, spec.interface_index}] = iface.vector;
  }
  for (const std::string& name : cell_names) {
    state.geometry[name] = flatten_boxes(cells.get(name));
  }

  // Partition the specs by compactable axis; a spec with both components
  // positive rides both passes (its y pass sees the x pass's new pitch).
  // Re-evaluated from the CURRENT vectors each round: a pitch between
  // non-interacting cells can legally collapse to zero, after which it no
  // longer satisfies the positive-pitch precondition of that axis's pass
  // and simply stays where the collapse left it.
  const auto specs_for_axis = [&](bool y_axis) {
    std::vector<PitchSpec> specs;
    for (const PitchSpec& spec : pitch_specs) {
      const Point& vector = state.vectors.at({spec.cell_a, spec.cell_b, spec.interface_index});
      if ((y_axis ? vector.y : vector.x) > 0) specs.push_back(spec);
    }
    return specs;
  };

  LeafXyResult result;
  // One warm-start handle per axis, alive across rounds: round k's optimal
  // basis seeds round k+1's solve of the same axis. The engine validates
  // the carried basis itself (rows matched by content, nonsingularity,
  // dual feasibility) and cold-starts when it is stale — e.g. when the
  // rebuilt geometry dropped constraints — so the handles need no
  // management here.
  std::array<LpWarmStart, 2> warm;
  // One axis pass over the current library. The y specs may be read after
  // the x pass: they test y components, and an x pass writes x components.
  const auto run_axis = [&](bool y_axis, bool& ran, LpStats& lp, double& objective) {
    const std::vector<PitchSpec> specs = specs_for_axis(y_axis);
    if (specs.empty()) return;
    const auto compact = y_axis ? &compact_leaf_cells_y : &compact_leaf_cells;
    const LeafResult pass = compact(state.cells(), state.interfaces(), cell_names, specs, rules,
                                    kLeafWidthWeight, /*stretchable_layers=*/{},
                                    options.warm_start ? &warm[y_axis] : nullptr);
    for (const auto& [name, boxes] : pass.cells) state.geometry[name] = boxes;
    for (std::size_t s = 0; s < specs.size(); ++s) {
      Point& vector = state.vectors[{specs[s].cell_a, specs[s].cell_b, specs[s].interface_index}];
      (y_axis ? vector.y : vector.x) = pass.pitches[s];
    }
    ran = true;
    lp = pass.lp_stats;
    objective = pass.objective;
    result.lp_total += pass.lp_stats;
  };
  // Convergence: the pitch vectors are back unchanged, and either the
  // geometry is too or neither axis found a better objective than last
  // round. Box positions alone do not decide it — the leaf LPs have tied
  // alternative optima, and each pass's tie-break depends on the other
  // axis's coordinates, so the geometry can wander inside the optimal face
  // forever while every quantity the schedule optimizes (pitches,
  // objective) sits still. A per-pass rule would differ on those ties, so
  // the verdict is the round's.
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(a) + std::abs(b));
  };
  // An axis that ran in neither round is trivially stable (its specs
  // dropped off — e.g. every pitch collapsed to zero); comparing its
  // default 0.0 against a real objective would stall convergence.
  const auto axis_plateau = [&](bool ran, double objective, bool prev_ran, double prev_objective) {
    if (ran != prev_ran) return false;
    return !ran || close(objective, prev_objective);
  };
  const auto round = [&](int k) {
    const LeafLibraryState before = state;
    LeafRoundStats stats;
    stats.round = k;
    run_axis(/*y_axis=*/false, stats.x_ran, stats.x_lp, stats.x_objective);
    run_axis(/*y_axis=*/true, stats.y_ran, stats.y_lp, stats.y_objective);
    const LeafRoundStats* previous =
        result.round_stats.empty() ? nullptr : &result.round_stats.back();
    const bool plateau =
        previous != nullptr &&
        axis_plateau(stats.x_ran, stats.x_objective, previous->x_ran, previous->x_objective) &&
        axis_plateau(stats.y_ran, stats.y_objective, previous->y_ran, previous->y_objective);
    result.round_stats.push_back(std::move(stats));
    RoundEnd end;
    end.unchanged = state.vectors == before.vectors && (state == before || plateau);
    return end;
  };
  run_rounds(result.rounds, result.converged, RoundEnd{}, kLeafMaxRounds,
             /*stop_when_converged=*/true, /*cancel=*/nullptr, round, [] {});

  result.cells = state.cells();
  result.interfaces = state.interfaces();
  return result;
}

}  // namespace rsg::compact
