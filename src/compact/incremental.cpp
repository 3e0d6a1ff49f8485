#include "compact/incremental.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace rsg::compact {

namespace {

std::uint64_t mix64(std::uint64_t h) {
  // splitmix64 finalizer.
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

std::uint64_t box_fingerprint(std::size_t index, const CompactionBox& cb) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(index));
  h = mix64(h ^ static_cast<std::uint64_t>(cb.geometry.box.lo.x));
  h = mix64(h ^ static_cast<std::uint64_t>(cb.geometry.box.lo.y));
  h = mix64(h ^ static_cast<std::uint64_t>(cb.geometry.box.hi.x));
  h = mix64(h ^ static_cast<std::uint64_t>(cb.geometry.box.hi.y));
  return mix64(h ^ static_cast<std::uint64_t>(cb.geometry.layer));
}

// Participant hash per (layer, band) shard: every box whose query window
// onto the layer overlaps the band folds its fingerprint in, in box-index
// order. The window is the participation predicate of the sweep itself
// (layer_window), so an unchanged hash means the shard's sweep would
// replay the identical query/insert sequence — its stored partner list is
// still exact. The window carries the shadow margin, which is what makes
// a moved box dirty its own band plus the spacing-radius neighbors.
std::vector<std::uint64_t> shard_hashes(const std::vector<CompactionBox>& boxes,
                                        const CompactionRules& rules,
                                        const std::vector<Coord>& cuts) {
  const std::size_t nb = cuts.size() - 1;
  std::vector<std::uint64_t> hashes(static_cast<std::size_t>(kNumLayers) * nb,
                                    0xcbf29ce484222325ull);
  // A layer with no member boxes has an empty profile forever: its shards
  // contribute no partners whatever the queriers do, so they are skipped
  // both here and by the sweeps (their hashes never change, so they are
  // never dirty). The box set of a schedule is fixed, so a layer cannot
  // gain members between passes.
  bool has_member[kNumLayers] = {};
  for (const CompactionBox& cb : boxes) {
    has_member[static_cast<int>(cb.geometry.layer)] = true;
  }
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    const std::uint64_t fp = box_fingerprint(i, boxes[i]);
    for (int li = 0; li < kNumLayers; ++li) {
      if (!has_member[li]) continue;
      Coord y0 = 0;
      Coord y1 = 0;
      if (!layer_window(boxes[i], li, rules, y0, y1)) continue;
      // Bands overlapped by [y0, y1): cuts[b] < y1 and cuts[b + 1] > y0.
      const std::size_t b0 = static_cast<std::size_t>(
          std::upper_bound(cuts.begin(), cuts.end(), y0) - cuts.begin() - 1);
      const std::size_t b1 = static_cast<std::size_t>(
          std::lower_bound(cuts.begin(), cuts.end(), y1) - cuts.begin() - 1);
      for (std::size_t b = b0; b <= b1 && b < nb; ++b) {
        std::uint64_t& h = hashes[static_cast<std::size_t>(li) * nb + b];
        h = mix64(h ^ fp);
      }
    }
  }
  return hashes;
}

void expect_identical_to_scratch(const ConstraintSystem& incremental,
                                 std::vector<CompactionBox> boxes,
                                 const CompactionRules& rules) {
  for (CompactionBox& cb : boxes) {
    cb.left_var = -1;
    cb.right_var = -1;
  }
  ConstraintSystem scratch;
  add_box_variables(scratch, boxes);
  generate_constraints(scratch, boxes, rules);
  const bool same_shape = incremental.variable_count() == scratch.variable_count() &&
                          incremental.constraint_count() == scratch.constraint_count();
  if (same_shape) {
    for (std::size_t i = 0; i < scratch.constraint_count(); ++i) {
      const Constraint& a = incremental.constraints()[i];
      const Constraint& b = scratch.constraints()[i];
      if (a.from != b.from || a.to != b.to || a.weight != b.weight || a.pitch != b.pitch ||
          a.pitch_coeff != b.pitch_coeff || a.kind != b.kind) {
        throw IncrementalDivergence(
            "incremental compaction: constraint stream diverged from scratch");
      }
    }
    return;
  }
  throw IncrementalDivergence("incremental compaction: constraint stream diverged from scratch");
}

}  // namespace

IncrementalCompactor::IncrementalCompactor(const CompactionRules& rules,
                                           const FlatOptions& options,
                                           const IncrementalOptions& incremental,
                                           std::vector<bool> stretchable)
    : rules_(rules),
      options_(options),
      incremental_(incremental),
      stretchable_(std::move(stretchable)) {}

void IncrementalCompactor::corrupt_cached_system_for_testing(bool y_axis) {
  AxisState& state = y_axis ? y_ : x_;
  if (!state.system_valid) {
    throw Error("incremental compaction: no cached system to corrupt (run a pass first)");
  }
  state.system.add_constraint(0, 0, 1, ConstraintKind::kSpacing);
}

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

  const int threads = resolve_sweep_threads(options_.generation_threads);
  if (!state.initialized) {
    const int bands = incremental_.bands > 0 ? incremental_.bands : threads;
    state.cuts = band_cuts(cboxes, std::max(bands, 1));
  }
  const std::size_t nb = state.cuts.size() - 1;
  const std::size_t total = static_cast<std::size_t>(kNumLayers) * nb;

  // Dirty detection: recompute every shard's participant hash against the
  // current geometry and compare with the hash its stored partner list was
  // swept under.
  std::vector<std::uint64_t> hashes = shard_hashes(cboxes, rules_, state.cuts);
  state.stats = {};
  state.stats.shards_total = static_cast<int>(total);
  state.stats.full_build = !state.initialized;
  const bool rebuild_all = !state.initialized || incremental_.full_rebuild;
  state.shards.resize(total);

  std::vector<std::size_t> dirty;
  dirty.reserve(total);
  for (std::size_t s = 0; s < total; ++s) {
    if (rebuild_all || hashes[s] != state.hashes[s]) dirty.push_back(s);
  }

  std::vector<std::size_t> order;  // computed lazily: an all-clean pass never sweeps
  if (!dirty.empty()) {
    order = sweep_order(cboxes);
    sweep_shards(cboxes, order, rules_, state.cuts, dirty, state.shards, threads);
  }
  state.hashes = std::move(hashes);
  state.initialized = true;

  state.stats.shards_reswept = static_cast<int>(dirty.size());
  {
    std::vector<char> reswept(total, 0);
    for (const std::size_t s : dirty) reswept[s] = 1;
    for (std::size_t s = 0; s < total; ++s) {
      if (reswept[s]) {
        state.stats.partners_reswept += state.shards[s].partners.size();
      } else {
        state.stats.partners_reused += state.shards[s].partners.size();
      }
    }
    for (const std::size_t s : dirty) state.stats.dirty_bands.push_back(static_cast<int>(s % nb));
    std::sort(state.stats.dirty_bands.begin(), state.stats.dirty_bands.end());
    state.stats.dirty_bands.erase(
        std::unique(state.stats.dirty_bands.begin(), state.stats.dirty_bands.end()),
        state.stats.dirty_bands.end());
  }

  // Splice: clean shards contribute their stored partner lists, dirty ones
  // their fresh sweeps; the merged emission is the scratch stream. When NO
  // shard is dirty the geometry is provably unchanged since the last pass
  // (every box participates in its own layer's shards), so the cached
  // system is reused without re-emitting anything.
  ConstraintSystem& system = state.system;
  const bool reuse_system =
      state.system_valid && dirty.empty() &&
      system.variable_count() == 2 * cboxes.size();
  if (reuse_system) {
    for (std::size_t i = 0; i < cboxes.size(); ++i) {
      cboxes[i].left_var = static_cast<int>(2 * i);
      cboxes[i].right_var = static_cast<int>(2 * i + 1);
    }
  } else {
    state.system_valid = false;
    if (system.variable_count() == 2 * cboxes.size() && system.pitch_count() == 0) {
      // Re-emit into the existing variables: refresh the initial abscissas
      // (the §6.4.2 seeding order keys on them) instead of reallocating
      // every variable.
      system.clear_constraints();
      for (std::size_t i = 0; i < cboxes.size(); ++i) {
        cboxes[i].left_var = static_cast<int>(2 * i);
        cboxes[i].right_var = static_cast<int>(2 * i + 1);
        system.set_initial(cboxes[i].left_var, cboxes[i].geometry.box.lo.x);
        system.set_initial(cboxes[i].right_var, cboxes[i].geometry.box.hi.x);
      }
    } else {
      system = ConstraintSystem();
      add_box_variables(system, cboxes);
    }
    if (order.empty()) order = sweep_order(cboxes);
    std::vector<const SweepShard*> views;
    views.reserve(total);
    for (const SweepShard& s : state.shards) views.push_back(&s);
    emit_constraints_from_shards(system, cboxes, order, rules_, views);
    state.system_valid = true;
  }
  result.constraint_count = system.constraint_count();
  result.variable_count = system.variable_count();

  if (incremental_.check_byte_identity) {
    expect_identical_to_scratch(system, cboxes, rules_);
  }

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
