#include "oracle/scratch_schedule.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "compact/incremental.hpp"
#include "support/error.hpp"

namespace rsg::compact::oracle {

namespace {

// The geometry's extent on one axis (0 for no boxes).
Coord extent(const std::vector<LayerBox>& boxes, bool y_axis) {
  Coord lo = std::numeric_limits<Coord>::max();
  Coord hi = std::numeric_limits<Coord>::lowest();
  for (const LayerBox& lb : boxes) {
    lo = std::min(lo, y_axis ? lb.box.lo.y : lb.box.lo.x);
    hi = std::max(hi, y_axis ? lb.box.hi.y : lb.box.hi.x);
  }
  return boxes.empty() ? 0 : hi - lo;
}

std::string describe(const Constraint& c) {
  return std::to_string(c.from) + " -> " + std::to_string(c.to) + " weight " +
         std::to_string(c.weight) + " kind " + std::to_string(static_cast<int>(c.kind));
}

// Scratch passes: every pass rebuilt by compact_flat. What a pass did to
// its input is read off the geometry, not reported by an engine.
class ScratchPasses final : public FlatAxisPasses {
 public:
  ScratchPasses(const CompactionRules& rules, const FlatOptions& options,
                const std::vector<bool>& stretchable)
      : rules_(rules), options_(options), stretchable_(stretchable) {}

  FlatResult run(bool y_axis, std::vector<LayerBox>& boxes) override {
    IncrementalPassStats& stats = stats_[y_axis];
    stats = {};
    FlatResult pass = y_axis ? compact_flat_y(boxes, rules_, options_, stretchable_)
                             : compact_flat(boxes, rules_, options_, stretchable_);
    stats.extent_after = extent(pass.boxes, y_axis);
    stats.geometry_kept = pass.boxes == boxes;
    boxes = std::move(pass.boxes);
    return pass;
  }
  const IncrementalPassStats& stats(bool y_axis) const override { return stats_[y_axis]; }

 private:
  const CompactionRules& rules_;
  const FlatOptions& options_;
  const std::vector<bool>& stretchable_;
  std::array<IncrementalPassStats, 2> stats_;
};

// Engine passes whose every constraint system, a thrown pass's included,
// is stream-checked against a scratch generation of the pass's input.
class CheckedPasses final : public FlatAxisPasses {
 public:
  CheckedPasses(const CompactionRules& rules, const FlatOptions& options,
                const std::vector<bool>& stretchable, int bands, int rounds_done)
      : engine_(rules, options, stretchable, bands),
        rules_(rules),
        options_(options),
        stretchable_(stretchable),
        round_(rounds_done) {}

  FlatResult run(bool y_axis, std::vector<LayerBox>& boxes) override {
    if (!y_axis) ++round_;
    const std::vector<LayerBox> input = boxes;
    FlatResult pass;
    try {
      pass = engine_.run(y_axis, boxes);
    } catch (const Error&) {
      check(y_axis, input);
      throw;
    }
    check(y_axis, input);
    return pass;
  }
  const IncrementalPassStats& stats(bool y_axis) const override { return engine_.stats(y_axis); }

 private:
  void check(bool y_axis, const std::vector<LayerBox>& input) const {
    const std::string divergence =
        y_axis ? stream_divergence(engine_.y_system(), transposed_boxes(input), rules_, options_,
                                   stretchable_)
               : stream_divergence(engine_.x_system(), input, rules_, options_, stretchable_);
    if (!divergence.empty()) {
      throw std::logic_error(std::string(y_axis ? "y" : "x") + " pass of round " +
                             std::to_string(round_) +
                             " diverged from scratch generation: " + divergence);
    }
  }

  IncrementalCompactor engine_;
  const CompactionRules& rules_;
  const FlatOptions& options_;
  const std::vector<bool>& stretchable_;
  int round_;
};

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
  ScratchPasses passes(rules, options, stretchable);
  return compact_flat_schedule(boxes, passes, schedule, stretchable);
}

XyScheduleResult checked_flat_schedule(const std::vector<LayerBox>& boxes,
                                       const CompactionRules& rules, const FlatOptions& options,
                                       const XyScheduleOptions& schedule,
                                       const std::vector<bool>& stretchable, int bands) {
  CheckedPasses passes(rules, options, stretchable, bands,
                       schedule.resume != nullptr ? schedule.resume->rounds_done : 0);
  return compact_flat_schedule(boxes, passes, schedule, stretchable);
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
