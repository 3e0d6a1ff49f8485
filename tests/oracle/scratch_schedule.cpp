#include "oracle/scratch_schedule.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "compact/incremental.hpp"
#include "support/error.hpp"

namespace rsg::compact::oracle {

namespace {

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

std::string describe(const Constraint& c) {
  return std::to_string(c.from) + " -> " + std::to_string(c.to) + " weight " +
         std::to_string(c.weight) + " kind " + std::to_string(static_cast<int>(c.kind));
}

// compact_flat_schedule's loop without checkpoint, resume and cancel. A
// null `engine` runs scratch passes; otherwise every pass runs through the
// engine and its stream is checked.
XyScheduleResult run_schedule(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                              const FlatOptions& options, const XyScheduleOptions& schedule,
                              const std::vector<bool>& stretchable,
                              IncrementalCompactor* engine) {
  XyScheduleResult result;
  result.boxes = boxes;
  const Extents before = extents_of(boxes);
  result.width_before = before.width;
  result.height_before = before.height;

  const auto run_pass = [&](bool y_axis, bool& infeasible,
                            bool& skipped) -> std::optional<FlatResult> {
    std::optional<FlatResult> pass;
    try {
      if (engine == nullptr) {
        pass = y_axis ? compact_flat_y(result.boxes, rules, options, stretchable)
                      : compact_flat(result.boxes, rules, options, stretchable);
      } else {
        pass = y_axis ? engine->compact_y(result.boxes) : engine->compact_x(result.boxes);
      }
    } catch (const Error&) {
      if (!schedule.best_effort) throw;
      infeasible = true;
      skipped = true;
    }
    if (engine != nullptr) {
      const std::string divergence =
          y_axis ? stream_divergence(engine->y_system(), transposed_boxes(result.boxes), rules,
                                     options, stretchable)
                 : stream_divergence(engine->x_system(), result.boxes, rules, options,
                                     stretchable);
      if (!divergence.empty()) {
        throw std::logic_error(std::string(y_axis ? "y" : "x") + " pass of round " +
                               std::to_string(result.rounds + 1) +
                               " diverged from scratch generation: " + divergence);
      }
    }
    if (pass) result.boxes = std::move(pass->boxes);
    return pass;
  };

  using Clock = std::chrono::steady_clock;
  for (int round = 0; round < schedule.max_rounds; ++round) {
    const std::vector<LayerBox> previous = result.boxes;
    RoundStats stats;
    stats.round = round + 1;
    const auto t0 = Clock::now();

    const Extents pre_x = extents_of(result.boxes);
    const std::optional<FlatResult> x_pass =
        run_pass(/*y_axis=*/false, result.x_infeasible, stats.x_skipped);
    const Extents pre_y = extents_of(result.boxes);
    stats.width_delta = pre_x.width - pre_y.width;
    const std::optional<FlatResult> y_pass =
        run_pass(/*y_axis=*/true, result.y_infeasible, stats.y_skipped);
    stats.height_delta = pre_y.height - extents_of(result.boxes).height;

    if (x_pass) {
      stats.constraints_emitted += x_pass->constraint_count;
      stats.solve_pops += x_pass->solve.pops;
      stats.warm_x = x_pass->solve.warm_accepted;
    }
    if (y_pass) {
      stats.constraints_emitted += y_pass->constraint_count;
      stats.solve_pops += y_pass->solve.pops;
      stats.warm_y = y_pass->solve.warm_accepted;
    }
    if (engine != nullptr) {
      stats.partners_reswept =
          engine->x_stats().partners_reswept + engine->y_stats().partners_reswept;
      stats.partners_reused =
          engine->x_stats().partners_reused + engine->y_stats().partners_reused;
    }
    stats.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    result.round_stats.push_back(stats);
    result.rounds = round + 1;

    // Both axes infeasible: the geometry is frozen, so stop without
    // claiming convergence.
    if (stats.x_skipped && stats.y_skipped) break;
    if (result.boxes == previous) result.converged = true;
    if (result.converged && schedule.stop_when_converged) break;
  }

  const Extents after = extents_of(result.boxes);
  result.width_after = after.width;
  result.height_after = after.height;
  return result;
}

}  // namespace

FlatResult compact_flat_y(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                          const FlatOptions& options, const std::vector<bool>& stretchable) {
  FlatResult result = compact_flat(transposed_boxes(boxes), rules, options, stretchable);
  result.boxes = transposed_boxes(result.boxes);
  return result;
}

std::string stream_divergence(const ConstraintSystem& system, const std::vector<LayerBox>& input,
                              const CompactionRules& rules, const FlatOptions& options,
                              const std::vector<bool>& stretchable) {
  Coord width_before = 0;
  std::vector<CompactionBox> boxes =
      normalized_compaction_boxes(input, options, stretchable, width_before);
  ConstraintSystem scratch;
  add_box_variables(scratch, boxes);
  generate_constraints(scratch, boxes, rules);

  if (system.variable_count() != scratch.variable_count() ||
      system.pitch_count() != scratch.pitch_count()) {
    return std::to_string(system.variable_count()) + " variables and " +
           std::to_string(system.pitch_count()) + " pitches, scratch has " +
           std::to_string(scratch.variable_count()) + " and " +
           std::to_string(scratch.pitch_count());
  }
  for (int v = 0; v < static_cast<int>(scratch.variable_count()); ++v) {
    if (system.initial(v) != scratch.initial(v)) {
      return "variable " + std::to_string(v) + " starts at " + std::to_string(system.initial(v)) +
             ", scratch at " + std::to_string(scratch.initial(v));
    }
  }
  const std::vector<Constraint>& got = system.constraints();
  const std::vector<Constraint>& want = scratch.constraints();
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const Constraint& a = got[i];
    const Constraint& b = want[i];
    if (a.from != b.from || a.to != b.to || a.weight != b.weight || a.pitch != b.pitch ||
        a.pitch_coeff != b.pitch_coeff || a.kind != b.kind) {
      return "constraint " + std::to_string(i) + " is " + describe(a) + ", scratch's is " +
             describe(b);
    }
  }
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " constraints, scratch has " + std::to_string(want.size());
  }
  return {};
}

XyScheduleResult scratch_flat_schedule(const std::vector<LayerBox>& boxes,
                                       const CompactionRules& rules, const FlatOptions& options,
                                       const XyScheduleOptions& schedule,
                                       const std::vector<bool>& stretchable) {
  return run_schedule(boxes, rules, options, schedule, stretchable, nullptr);
}

XyScheduleResult checked_flat_schedule(const std::vector<LayerBox>& boxes,
                                       const CompactionRules& rules, const FlatOptions& options,
                                       const XyScheduleOptions& schedule,
                                       const std::vector<bool>& stretchable, int bands) {
  IncrementalCompactor engine(rules, options, stretchable, bands);
  return run_schedule(boxes, rules, options, schedule, stretchable, &engine);
}

std::string round_stats_divergence(const XyScheduleResult& a, const XyScheduleResult& b) {
  if (a.round_stats.size() != b.round_stats.size()) {
    return std::to_string(a.round_stats.size()) + " rounds against " +
           std::to_string(b.round_stats.size());
  }
  const auto work = [](const RoundStats& s) {
    return std::make_tuple(s.round, s.width_delta, s.height_delta, s.x_skipped, s.y_skipped,
                           s.constraints_emitted, s.partners_reswept, s.partners_reused,
                           s.solve_pops, s.warm_x, s.warm_y);
  };
  for (std::size_t r = 0; r < a.round_stats.size(); ++r) {
    if (work(a.round_stats[r]) != work(b.round_stats[r])) {
      return "round " + std::to_string(r + 1) + " differs";
    }
  }
  return {};
}

}  // namespace rsg::compact::oracle
