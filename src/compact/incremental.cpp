#include "compact/incremental.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

namespace rsg::compact {

namespace {

// A box in a pass's own frame: a y pass sees the layout transposed, and
// transposing is its own inverse.
Box in_frame(const Box& b, bool transposed) {
  if (!transposed) return b;
  Box t;
  t.lo = {b.lo.y, b.lo.x};
  t.hi = {b.hi.y, b.hi.x};
  return t;
}

}  // namespace

IncrementalCompactor::IncrementalCompactor(const CompactionRules& rules,
                                           const FlatOptions& options,
                                           std::vector<bool> stretchable, int bands)
    : rules_(rules), options_(options), stretchable_(std::move(stretchable)), bands_(bands) {
  // The window table, read off the sweep's own participation predicate: a
  // zero-height box at y = 0 opens the window [-margin, margin) onto each
  // profile layer it reaches.
  for (int layer = 0; layer < kNumLayers; ++layer) {
    CompactionBox probe;
    probe.geometry.layer = static_cast<Layer>(layer);
    for (int profile = 0; profile < kNumLayers; ++profile) {
      Coord y0 = 0;
      Coord y1 = 0;
      if (layer_window(probe, profile, rules_, y0, y1)) {
        windows_[static_cast<std::size_t>(layer)].push_back({profile, y1});
      }
    }
  }
}

FlatResult IncrementalCompactor::compact_x(const std::vector<LayerBox>& boxes) {
  std::vector<LayerBox> out = boxes;
  FlatResult result = run(/*y_axis=*/false, out);
  result.boxes = std::move(out);
  return result;
}

FlatResult IncrementalCompactor::compact_y(const std::vector<LayerBox>& boxes) {
  std::vector<LayerBox> out = boxes;
  FlatResult result = run(/*y_axis=*/true, out);
  result.boxes = std::move(out);
  return result;
}

FlatResult IncrementalCompactor::run(bool y_axis, std::vector<LayerBox>& boxes) {
  AxisState& state = y_axis ? y_ : x_;
  check_stretchable_mask(stretchable_, boxes.size());
  FlatResult result;
  state.stats = {};
  const std::size_t n = boxes.size();

  // compact_flat's normalization (normalized_compaction_boxes, which the
  // oracle's stream check holds this to): shift the leftmost edge to the
  // anchor wall. After the axis's first pass the shift is identically zero
  // (the solver pins the leftmost edge at 0 and the other axis never moves
  // x), so normalization cannot dirty bands by itself.
  Coord min_x = 0;
  Coord max_x = 0;
  if (n > 0) {
    min_x = std::numeric_limits<Coord>::max();
    max_x = std::numeric_limits<Coord>::lowest();
    for (const LayerBox& lb : boxes) {
      min_x = std::min(min_x, y_axis ? lb.box.lo.y : lb.box.lo.x);
      max_x = std::max(max_x, y_axis ? lb.box.hi.y : lb.box.hi.x);
    }
  }
  result.width_before = max_x - min_x;

  // The first pass, and a pass whose box count changed, rebuild the store.
  const bool rebuild = !state.initialized || state.boxes.size() != n;
  if (rebuild) {
    state.boxes.assign(n, CompactionBox{});
    for (std::size_t i = 0; i < n; ++i) {
      CompactionBox& cb = state.boxes[i];
      cb.stretchable = options_.mark_all_stretchable || (!stretchable_.empty() && stretchable_[i]);
      cb.left_var = static_cast<int>(2 * i);
      cb.right_var = static_cast<int>(2 * i + 1);
    }
  }

  // Dirty detection against the store: a box whose geometry changed
  // dirties the bands its old and its new window overlap. The windows are
  // the sweep's own participation predicate (layer_window, tabulated), so
  // a shard no moved box reaches would replay the identical query/insert
  // sequence, and its stored partner list is still exact. A layer without
  // member boxes has an empty profile and contributes no partners whatever
  // the queriers do, so its shards are never dirty. The first pass, and a
  // pass whose box count or layers changed, re-sweeps every shard.
  const std::size_t marked_bands = state.initialized ? state.cuts.size() - 1 : 0;
  std::vector<char> dirty_flag(static_cast<std::size_t>(kNumLayers) * marked_bands, 0);
  const auto mark = [&](const LayerBox& geometry) {
    for (const Window& w : windows_[static_cast<std::size_t>(geometry.layer)]) {
      if (!state.has_member[static_cast<std::size_t>(w.layer)]) continue;
      char* const flags = dirty_flag.data() + static_cast<std::size_t>(w.layer) * marked_bands;
      if (marked_bands == 1) {
        flags[0] = 1;
        continue;
      }
      // Bands overlapped by [y0, y1): cuts[b] < y1 and cuts[b + 1] > y0.
      const Coord y0 = geometry.box.lo.y - w.margin;
      const Coord y1 = geometry.box.hi.y + w.margin;
      const auto b0 = static_cast<std::size_t>(
          std::upper_bound(state.cuts.begin(), state.cuts.end(), y0) - state.cuts.begin() - 1);
      const auto b1 = static_cast<std::size_t>(
          std::lower_bound(state.cuts.begin(), state.cuts.end(), y1) - state.cuts.begin() - 1);
      for (std::size_t b = b0; b <= b1 && b < marked_bands; ++b) flags[b] = 1;
    }
  };

  // The one read of the input: each box in the axis's frame, normalized,
  // compared with the store and written into it.
  bool same_layers = true;
  bool widths_kept = true;
  std::size_t moved = 0;
  std::vector<std::uint32_t> x_moved;  // boxes whose x extent changed, ascending
  for (std::size_t i = 0; i < n; ++i) {
    LayerBox now{boxes[i].layer, in_frame(boxes[i].box, y_axis)};
    now.box.lo.x -= min_x;
    now.box.hi.x -= min_x;
    CompactionBox& cb = state.boxes[i];
    LayerBox& was = cb.geometry;
    if (!rebuild) {
      if (was == now) continue;
      ++moved;
      if (was.layer != now.layer) same_layers = false;
      if (!cb.stretchable && was.box.width() != now.box.width()) widths_kept = false;
      if (same_layers) {
        mark(was);
        mark(now);
      }
      if (was.box.lo.x != now.box.lo.x || was.box.hi.x != now.box.hi.x) {
        x_moved.push_back(static_cast<std::uint32_t>(i));
      }
    }
    was = now;
  }
  state.stats.boxes_moved = rebuild ? n : moved;

  if (!state.initialized) state.cuts = band_cuts(state.boxes, std::max(bands_, 1));
  const std::size_t nb = state.cuts.size() - 1;
  const std::size_t total = static_cast<std::size_t>(kNumLayers) * nb;
  const bool full = rebuild || !same_layers;
  if (full) {
    state.has_member.fill(false);
    for (const CompactionBox& cb : state.boxes) {
      state.has_member[static_cast<std::size_t>(cb.geometry.layer)] = true;
    }
    dirty_flag.assign(total, 1);
  }
  // The width/anchor prefix of the cached system holds while the box count,
  // layers and rigid widths do (the stretchable mask and the rules are
  // fixed for the instance).
  if (full || !widths_kept) state.prefix = 0;

  // The system's variables are the store's edges, 2i and 2i + 1: a new box
  // count starts a new system, otherwise only the boxes whose x extent
  // changed refresh their initial abscissas (the §6.4.2 seeding order keys
  // on them).
  ConstraintSystem& system = state.system;
  if (system.variable_count() != 2 * n) {
    system = ConstraintSystem();
    for (const CompactionBox& cb : state.boxes) {
      system.add_variable(cb.geometry.box.lo.x);
      system.add_variable(cb.geometry.box.hi.x);
    }
    state.system_valid = false;
    state.prefix = 0;
  } else {
    for (const std::uint32_t i : x_moved) {
      const Box& box = state.boxes[i].geometry.box;
      system.set_initial(state.boxes[i].left_var, box.lo.x);
      system.set_initial(state.boxes[i].right_var, box.hi.x);
    }
  }
  update_order(state, x_moved, full);

  std::vector<std::size_t> dirty;
  for (std::size_t s = 0; s < total; ++s) {
    if (dirty_flag[s]) dirty.push_back(s);
  }
  // The sweeps run on the calling thread: every shard walks every box, and
  // at the sizes a schedule sees, spawning tasks each pass costs more than
  // the parallel walks save.
  state.shards.resize(total);
  if (!dirty.empty()) {
    sweep_shards(state.boxes, state.order, rules_, state.cuts, dirty, state.shards,
                 /*threads=*/1);
  }

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
  // re-emitted after the kept width/anchor prefix.
  if (!state.system_valid || !dirty.empty()) {
    state.system_valid = false;
    system.truncate_constraints(state.prefix);
    if (state.prefix == 0) {
      add_width_and_anchor(system, state.boxes, rules_);
      state.prefix = system.constraint_count();
    }
    std::vector<const SweepShard*> views;
    views.reserve(total);
    for (const SweepShard& s : state.shards) views.push_back(&s);
    emit_pair_constraints(system, state.boxes, state.order, rules_, views);
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
  // and would only pay its bail-out cost before the cold rerun. The gate's
  // scan is the warm phase's first sweep, so the solver skips its own.
  bool seed_feasible = false;
  // The feasibility scan assumes pitch-free constraints (flat systems have
  // none; the pitched leaf path never reaches this engine).
  if (state.warm.size() == system.variable_count() && !state.warm.empty() &&
      system.pitch_count() == 0) {
    seed_feasible = true;
    for (const Constraint& c : system.constraints()) {
      const Coord from = c.from < 0 ? 0 : state.warm[static_cast<std::size_t>(c.from)];
      if (state.warm[static_cast<std::size_t>(c.to)] < from + c.weight) {
        seed_feasible = false;
        break;
      }
    }
  }
  result.solve =
      solve_leftmost_worklist(system, seed_feasible ? &state.warm : nullptr, seed_feasible);
  // Snapshot the warm seed BEFORE the rubber band moves boxes off the
  // least solution: the next pass's warm start targets the least solve,
  // and a rubber-banded seed would fail verification every round.
  state.warm = system.values;
  if (options_.apply_rubber_band) result.rubber = rubber_band(system);

  // The output, written over the input in the caller's frame.
  Coord width = 0;  // compact_flat's width_after: the rightmost edge
  Coord left_min = std::numeric_limits<Coord>::max();
  Coord right_max = std::numeric_limits<Coord>::lowest();
  bool kept = true;
  for (std::size_t i = 0; i < n; ++i) {
    const CompactionBox& cb = state.boxes[i];
    const Coord left = system.values[static_cast<std::size_t>(cb.left_var)];
    const Coord right = system.values[static_cast<std::size_t>(cb.right_var)];
    const LayerBox out{cb.geometry.layer,
                       in_frame(Box(left, cb.geometry.box.lo.y, right, cb.geometry.box.hi.y),
                                y_axis)};
    kept = kept && out == boxes[i];
    boxes[i] = out;
    width = std::max(width, right);
    left_min = std::min(left_min, left);
    right_max = std::max(right_max, right);
  }
  result.width_after = width;
  state.stats.geometry_kept = kept;
  state.stats.extent_after = n == 0 ? 0 : right_max - left_min;
  return result;
}

void IncrementalCompactor::update_order(AxisState& state, std::vector<std::uint32_t>& x_moved,
                                        bool resort) {
  const std::vector<CompactionBox>& boxes = state.boxes;
  SweepOrder& order = state.order;
  const auto before = [&](std::uint32_t a, std::uint32_t b) { return sweep_before(boxes, a, b); };
  if (!resort && x_moved.empty()) return;
  if (!resort && 8 * x_moved.size() <= boxes.size()) {
    // Drop the moved boxes from the kept order (the others keep their
    // places relative to each other), sort them, and merge them back in
    // from the back.
    std::vector<char> is_moved(boxes.size(), 0);
    for (const std::uint32_t i : x_moved) is_moved[i] = 1;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (!is_moved[order[k]]) order[kept++] = order[k];
    }
    std::sort(x_moved.begin(), x_moved.end(), before);
    std::size_t out = order.size();
    for (std::size_t j = x_moved.size(); j > 0;) {
      if (kept > 0 && before(x_moved[j - 1], order[kept - 1])) {
        order[--out] = order[--kept];
      } else {
        order[--out] = x_moved[--j];
      }
    }
    state.stats.order_merged = x_moved.size();
    return;
  }
  // Many moved boxes can still leave the order sorted (a uniform shift of a
  // column, say): one linear check before the full sort.
  if (!resort && std::is_sorted(order.begin(), order.end(), before)) return;
  order = sweep_order(boxes);
  state.stats.order_sorted = true;
}

}  // namespace rsg::compact
