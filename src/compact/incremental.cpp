#include "compact/incremental.hpp"

#include <algorithm>
#include <utility>

namespace rsg::compact {

IncrementalCompactor::IncrementalCompactor(const CompactionRules& rules,
                                           const FlatOptions& options,
                                           std::vector<bool> stretchable, int bands)
    : rules_(rules), options_(options), stretchable_(std::move(stretchable)), bands_(bands) {}

FlatResult IncrementalCompactor::compact_x(const std::vector<LayerBox>& boxes) {
  return pass(x_, boxes);
}

FlatResult IncrementalCompactor::compact_y(const std::vector<LayerBox>& boxes) {
  FlatResult result = pass(y_, transposed_boxes(boxes));
  result.boxes = transposed_boxes(result.boxes);
  return result;
}

FlatResult IncrementalCompactor::pass(AxisState& state, const std::vector<LayerBox>& boxes) {
  FlatResult result;
  // The compact_flat prologue, shared so the byte-identity contract cannot
  // drift: normalization shifts the leftmost edge to the anchor wall, and
  // after the first pass the shift is identically zero (the solver pins
  // the leftmost edge at 0 and the other axis never moves x), so
  // normalization cannot dirty bands by itself.
  std::vector<CompactionBox> cboxes =
      normalized_compaction_boxes(boxes, options_, stretchable_, result.width_before);
  const std::size_t n = cboxes.size();

  if (!state.initialized) state.cuts = band_cuts(cboxes, std::max(bands_, 1));
  const std::size_t nb = state.cuts.size() - 1;
  const std::size_t total = static_cast<std::size_t>(kNumLayers) * nb;

  // Dirty detection against the previous pass's input: a box whose
  // geometry changed dirties the bands its old and its new window overlap.
  // The window is the sweep's own participation predicate (layer_window),
  // so a shard no moved box reaches would replay the identical query/insert
  // sequence, and its stored partner list is still exact. A layer without
  // member boxes has an empty profile and contributes no partners whatever
  // the queriers do, so its shards are never dirty. The first pass, and a
  // pass whose box count or layers changed, re-sweeps every shard.
  std::vector<char> dirty_flag(total, 0);
  const auto mark = [&](const LayerBox& geometry) {
    CompactionBox cb;
    cb.geometry = geometry;
    for (int li = 0; li < kNumLayers; ++li) {
      Coord y0 = 0;
      Coord y1 = 0;
      if (!state.has_member[static_cast<std::size_t>(li)] ||
          !layer_window(cb, li, rules_, y0, y1)) {
        continue;
      }
      // Bands overlapped by [y0, y1): cuts[b] < y1 and cuts[b + 1] > y0.
      const auto b0 = static_cast<std::size_t>(
          std::upper_bound(state.cuts.begin(), state.cuts.end(), y0) - state.cuts.begin() - 1);
      const auto b1 = static_cast<std::size_t>(
          std::lower_bound(state.cuts.begin(), state.cuts.end(), y1) - state.cuts.begin() - 1);
      for (std::size_t b = b0; b <= b1 && b < nb; ++b) {
        dirty_flag[static_cast<std::size_t>(li) * nb + b] = 1;
      }
    }
  };
  bool same_boxes = state.initialized && state.previous.size() == n;
  bool widths_kept = true;
  for (std::size_t i = 0; same_boxes && i < n; ++i) {
    const LayerBox& was = state.previous[i];
    const LayerBox& now = cboxes[i].geometry;
    if (was == now) continue;
    same_boxes = was.layer == now.layer;
    if (!cboxes[i].stretchable && was.box.width() != now.box.width()) widths_kept = false;
    mark(was);
    mark(now);
  }
  if (!same_boxes) {
    state.has_member.fill(false);
    for (const CompactionBox& cb : cboxes) {
      state.has_member[static_cast<std::size_t>(cb.geometry.layer)] = true;
    }
  }
  // The width/anchor prefix of the cached system holds while the box count,
  // layers and rigid widths do (the stretchable mask and the rules are
  // fixed for the instance).
  if (!same_boxes || !widths_kept) state.prefix = 0;
  if (!same_boxes) dirty_flag.assign(total, 1);

  std::vector<std::size_t> dirty;
  for (std::size_t s = 0; s < total; ++s) {
    if (dirty_flag[s]) dirty.push_back(s);
  }
  // The sweeps run on the calling thread: every shard walks every box, and
  // at the sizes a schedule sees, spawning tasks each pass costs more than
  // the parallel walks save.
  std::vector<std::size_t> order;  // computed lazily: an all-clean pass never sweeps
  state.shards.resize(total);
  if (!dirty.empty()) {
    order = sweep_order(cboxes);
    sweep_shards(cboxes, order, rules_, state.cuts, dirty, state.shards, /*threads=*/1);
  }
  state.previous.resize(n);
  for (std::size_t i = 0; i < n; ++i) state.previous[i] = cboxes[i].geometry;

  state.stats = {};
  state.stats.shards_total = static_cast<int>(total);
  state.stats.shards_reswept = static_cast<int>(dirty.size());
  state.stats.full_build = !state.initialized;
  state.initialized = true;
  for (std::size_t s = 0; s < total; ++s) {
    (dirty_flag[s] ? state.stats.partners_reswept : state.stats.partners_reused) +=
        state.shards[s].partners.size();
  }
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t li = 0; li < static_cast<std::size_t>(kNumLayers); ++li) {
      if (dirty_flag[li * nb + b]) {
        state.stats.dirty_bands.push_back(static_cast<int>(b));
        break;
      }
    }
  }

  // Splice: clean shards contribute their stored partner lists, dirty ones
  // their fresh sweeps; the merged emission is the scratch stream. When no
  // box moved, no shard is dirty and the cached system is this pass's
  // system, reused without re-emitting anything. Otherwise the pairs are
  // re-emitted after the kept width/anchor prefix, into the existing
  // variables with their initial abscissas refreshed (the §6.4.2 seeding
  // order keys on them).
  ConstraintSystem& system = state.system;
  if (system.variable_count() != 2 * n) {
    system = ConstraintSystem();
    add_box_variables(system, cboxes);
    state.system_valid = false;
    state.prefix = 0;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      cboxes[i].left_var = static_cast<int>(2 * i);
      cboxes[i].right_var = static_cast<int>(2 * i + 1);
    }
  }
  if (!state.system_valid || !dirty.empty()) {
    state.system_valid = false;
    system.truncate_constraints(state.prefix);
    if (state.prefix == 0) {
      add_width_and_anchor(system, cboxes, rules_);
      state.prefix = system.constraint_count();
    }
    for (const CompactionBox& cb : cboxes) {
      system.set_initial(cb.left_var, cb.geometry.box.lo.x);
      system.set_initial(cb.right_var, cb.geometry.box.hi.x);
    }
    if (order.empty()) order = sweep_order(cboxes);
    std::vector<const SweepShard*> views;
    views.reserve(total);
    for (const SweepShard& s : state.shards) views.push_back(&s);
    emit_pair_constraints(system, cboxes, order, rules_, views);
    state.system_valid = true;
  }
  result.constraint_count = system.constraint_count();
  result.variable_count = system.variable_count();

  // Warm-started solve: the previous pass's coordinates seed the worklist;
  // verification (or cold fallback) keeps the values exactly the least
  // solution, so the geometry below matches compact_flat bit for bit.
  // Predictive gate: attempt the warm start only when the seed already
  // satisfies every constraint of the new system — then the raise is a
  // no-op and only verification decides, which is exactly the converged-
  // tail regime the engine exists for. A violated seed would have to be
  // raised first, almost always overshoots the least solution somewhere,
  // and would only pay its bail-out cost before the cold rerun.
  const std::vector<Coord>* seed = nullptr;
  // The feasibility scan assumes pitch-free constraints (flat systems have
  // none; the pitched leaf path never reaches this engine).
  if (state.warm.size() == system.variable_count() && !state.warm.empty() &&
      system.pitch_count() == 0) {
    bool feasible = true;
    for (const Constraint& c : system.constraints()) {
      const Coord from = c.from < 0 ? 0 : state.warm[static_cast<std::size_t>(c.from)];
      if (state.warm[static_cast<std::size_t>(c.to)] < from + c.weight) {
        feasible = false;
        break;
      }
    }
    if (feasible) seed = &state.warm;
  }
  result.solve = solve_leftmost_worklist(system, seed);
  // Snapshot the warm seed BEFORE the rubber band moves boxes off the
  // least solution: the next pass's warm start targets the least solve,
  // and a rubber-banded seed would fail verification every round.
  state.warm = system.values;
  if (options_.apply_rubber_band) result.rubber = rubber_band(system);

  result.boxes.reserve(cboxes.size());
  Coord width = 0;
  for (const CompactionBox& cb : cboxes) {
    const Coord left = system.values[static_cast<std::size_t>(cb.left_var)];
    const Coord right = system.values[static_cast<std::size_t>(cb.right_var)];
    result.boxes.push_back(
        {cb.geometry.layer, Box(left, cb.geometry.box.lo.y, right, cb.geometry.box.hi.y)});
    width = std::max(width, right);
  }
  result.width_after = width;
  return result;
}

}  // namespace rsg::compact
