// Equivalence and behavior tests for the incremental x/y compaction engine
// (compact/incremental.hpp): scratch-vs-incremental byte identity of the
// constraint stream and the final geometry across 200+ seeded fields at
// one band and at four, the dirty-band locality contract (a single moved
// box re-sweeps exactly the bands its shadow window touches), warm-start
// exactness for both worklist solvers, the full-rebuild escape hatch, and
// the both-axes-infeasible early termination of the schedule.
#include "compact/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "compact/synth_design.hpp"
#include "compact/xy_schedule.hpp"
#include "layout/flatten.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "rsg/generator.hpp"
#include "support/error.hpp"

namespace rsg::compact {
namespace {

std::vector<SynthField> identity_fields() {
  std::vector<SynthField> fields;
  for (std::uint32_t seed = 0; seed < 200; ++seed) {
    fields.push_back(make_random_field(seed, 4 + static_cast<int>(seed % 40)));
  }
  fields.push_back(make_grid_field(6, 7));
  fields.push_back(make_grid_field(1, 30));
  fields.push_back(make_pla_field(8, 10));
  fields.push_back(make_pla_field(3, 25));
  return fields;
}

TEST(Incremental, ScratchVsIncrementalByteIdentityOnSeededFields) {
  // The tentpole contract: over a multi-round schedule the incremental
  // engine must reproduce the scratch schedule's geometry exactly, and in
  // check mode it proves the CONSTRAINT STREAM of every pass byte-identical
  // to a from-scratch generation (the check throws on any divergence), at
  // the default band count (one) and at four.
  XyScheduleOptions scratch_options;
  scratch_options.max_rounds = 3;
  scratch_options.stop_when_converged = false;
  scratch_options.incremental = false;

  for (const int bands : {0, 4}) {
    XyScheduleOptions incremental_options = scratch_options;
    incremental_options.incremental = true;
    incremental_options.incremental_options.bands = bands;
    incremental_options.incremental_options.check_byte_identity = true;

    std::uint32_t seed = 0;
    for (const SynthField& field : identity_fields()) {
      const XyScheduleResult scratch = compact_flat_schedule(
          field.boxes, CompactionRules::mosis(), {}, scratch_options, field.stretchable);
      const XyScheduleResult incremental = compact_flat_schedule(
          field.boxes, CompactionRules::mosis(), {}, incremental_options, field.stretchable);
      ASSERT_EQ(scratch.boxes, incremental.boxes) << "bands " << bands << " seed " << seed;
      ASSERT_EQ(scratch.width_after, incremental.width_after) << "bands " << bands;
      ASSERT_EQ(scratch.height_after, incremental.height_after) << "bands " << bands;
      ASSERT_EQ(scratch.rounds, incremental.rounds) << "bands " << bands << " seed " << seed;
      ++seed;
    }
  }
}

TEST(Incremental, LateRoundsRepriseCleanBandsAndWarmStarts) {
  // On a field that keeps converging, the late rounds of the incremental
  // schedule must actually reuse: partner entries spliced from clean bands
  // and warm-started solves with zero worklist pops.
  const SynthField field = make_grid_field(12, 12);
  XyScheduleOptions options;
  options.max_rounds = 8;
  options.stop_when_converged = false;
  options.incremental_options.bands = 4;
  const XyScheduleResult result = compact_flat_schedule(
      field.boxes, CompactionRules::mosis(), {}, options, field.stretchable);
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(static_cast<int>(result.round_stats.size()), result.rounds);
  const RoundStats& last = result.round_stats.back();
  EXPECT_EQ(last.partners_reswept, 0u);
  EXPECT_GT(last.partners_reused, 0u);
  EXPECT_EQ(last.solve_pops, 0u);
  EXPECT_TRUE(last.warm_x);
  EXPECT_TRUE(last.warm_y);
}

TEST(Incremental, SingleMovedBoxDirtiesItsBandAndSpacingNeighbors) {
  // Dirty detection is windowed: moving one box must re-sweep exactly the
  // bands its y extent + shadow margin overlaps — its own band plus the
  // spacing-radius neighbors — and nothing else.
  std::vector<LayerBox> boxes;
  for (int i = 0; i < 32; ++i) {
    boxes.push_back({Layer::kMetal1, Box(0, i * 40, 8, i * 40 + 8)});
    boxes.push_back({Layer::kMetal1, Box(20, i * 40, 28, i * 40 + 8)});
  }
  IncrementalOptions inc;
  inc.bands = 8;
  inc.check_byte_identity = true;
  IncrementalCompactor engine(CompactionRules::mosis(), {}, inc);
  const FlatResult first = engine.compact_x(boxes);
  ASSERT_TRUE(engine.x_stats().full_build);
  // Stabilize: dirty detection compares each pass's INPUT with the last
  // one, so run once more on the compacted output to make it current.
  const FlatResult stable = engine.compact_x(first.boxes);
  ASSERT_EQ(stable.boxes, first.boxes);

  // Move one mid-stack box right; x movement keeps its y window unchanged.
  std::vector<LayerBox> moved = stable.boxes;
  const std::size_t victim = 33;  // second box of row 16
  moved[victim].box = moved[victim].box.translated({5, 0});

  const FlatResult second = engine.compact_x(moved);
  const IncrementalPassStats& stats = engine.x_stats();
  EXPECT_FALSE(stats.full_build);
  EXPECT_GT(stats.shards_reswept, 0);
  EXPECT_LT(stats.shards_reswept, stats.shards_total);

  // Expected dirty bands: those overlapping the victim's widest shadow
  // window over any profile layer it participates in.
  Coord max_margin = 0;
  CompactionBox victim_box;
  victim_box.geometry = moved[victim];
  for (int li = 0; li < kNumLayers; ++li) {
    Coord y0 = 0;
    Coord y1 = 0;
    if (layer_window(victim_box, li, CompactionRules::mosis(), y0, y1)) {
      max_margin = std::max(max_margin, moved[victim].box.lo.y - y0);
    }
  }
  const Coord y0 = moved[victim].box.lo.y - max_margin;
  const Coord y1 = moved[victim].box.hi.y + max_margin;
  const std::vector<Coord>& cuts = engine.x_band_cuts();
  std::vector<int> expected;
  for (std::size_t b = 0; b + 1 < cuts.size(); ++b) {
    if (cuts[b] < y1 && cuts[b + 1] > y0) expected.push_back(static_cast<int>(b));
  }
  EXPECT_EQ(stats.dirty_bands, expected);

  // And the spliced pass still equals a scratch compaction of the moved
  // geometry.
  const FlatResult scratch = compact_flat(moved, CompactionRules::mosis());
  EXPECT_EQ(second.boxes, scratch.boxes);
}

TEST(Incremental, ResizedRigidBoxRefreshesTheWidthPrefix) {
  // A schedule never changes a rigid box's width, so the engine keeps each
  // axis's width/anchor constraints across passes. A caller that resizes
  // one must still get the scratch stream: check_byte_identity throws on
  // a stale prefix.
  const SynthField field = make_random_field(5, 20);
  const auto rigid = std::find(field.stretchable.begin(), field.stretchable.end(), false);
  ASSERT_NE(rigid, field.stretchable.end());
  IncrementalOptions inc;
  inc.check_byte_identity = true;
  IncrementalCompactor engine(CompactionRules::mosis(), {}, inc, field.stretchable);
  std::vector<LayerBox> boxes = engine.compact_x(field.boxes).boxes;
  boxes[static_cast<std::size_t>(rigid - field.stretchable.begin())].box.hi.x += 3;
  const FlatResult resized = engine.compact_x(boxes);
  EXPECT_EQ(resized.boxes,
            compact_flat(boxes, CompactionRules::mosis(), {}, field.stretchable).boxes);
}

TEST(Incremental, FullRebuildEscapeHatchStaysExact) {
  const SynthField field = make_random_field(7, 25);
  IncrementalOptions inc;
  inc.bands = 4;
  inc.full_rebuild = true;
  IncrementalCompactor engine(CompactionRules::mosis(), {}, inc, field.stretchable);
  const FlatResult first = engine.compact_x(field.boxes);
  const FlatResult again = engine.compact_x(first.boxes);
  // Every shard is re-swept every pass under the escape hatch.
  EXPECT_EQ(engine.x_stats().shards_reswept, engine.x_stats().shards_total);
  EXPECT_EQ(engine.x_stats().partners_reused, 0u);
  const FlatResult scratch = compact_flat(first.boxes, CompactionRules::mosis(), {},
                                          field.stretchable);
  EXPECT_EQ(again.boxes, scratch.boxes);
}

TEST(Incremental, FullRebuildUnderByteIdentityCheckAcrossBothAxes) {
  // The two escape hatches composed, over a moving multi-pass sequence on
  // BOTH axes: full_rebuild must re-sweep every shard every pass (never
  // splice), check_byte_identity must stay silent on correct state, and
  // the geometry must equal the scratch compactors' exactly.
  const SynthField field = make_random_field(11, 30);
  IncrementalOptions inc;
  inc.bands = 4;
  inc.full_rebuild = true;
  inc.check_byte_identity = true;
  IncrementalCompactor engine(CompactionRules::mosis(), {}, inc, field.stretchable);
  std::vector<LayerBox> boxes = field.boxes;
  for (int pass = 0; pass < 3; ++pass) {
    const FlatResult x = engine.compact_x(boxes);
    EXPECT_EQ(engine.x_stats().shards_reswept, engine.x_stats().shards_total)
        << "pass " << pass;
    EXPECT_EQ(engine.x_stats().partners_reused, 0u) << "pass " << pass;
    const FlatResult x_scratch = compact_flat(boxes, CompactionRules::mosis(), {},
                                              field.stretchable);
    ASSERT_EQ(x.boxes, x_scratch.boxes) << "pass " << pass;
    const FlatResult y = engine.compact_y(x.boxes);
    EXPECT_EQ(engine.y_stats().shards_reswept, engine.y_stats().shards_total)
        << "pass " << pass;
    EXPECT_EQ(engine.y_stats().partners_reused, 0u) << "pass " << pass;
    const FlatResult y_scratch = compact_flat_y(x.boxes, CompactionRules::mosis(), {},
                                                field.stretchable);
    ASSERT_EQ(y.boxes, y_scratch.boxes) << "pass " << pass;
    boxes = y.boxes;
  }
}

TEST(Incremental, CheckByteIdentityThrowsOnCorruptedState) {
  // The error path of the diagnostic mode, executed via fault injection
  // (the engine is byte-identical by construction, so the only way to see
  // the check FIRE is to corrupt its cached state): an all-clean pass
  // reuses the corrupted cache, the scratch comparison diverges, and the
  // distinct IncrementalDivergence type must come out — it is what lets
  // the best-effort schedule treat an engine bug as fatal while still
  // skipping genuinely infeasible axes.
  const SynthField field = make_random_field(3, 20);
  IncrementalOptions inc;
  inc.bands = 4;
  inc.check_byte_identity = true;
  IncrementalCompactor engine(CompactionRules::mosis(), {}, inc, field.stretchable);
  // No cached system before the first pass: the hook itself refuses.
  EXPECT_THROW(engine.corrupt_cached_system_for_testing(false), Error);
  // Converge each axis first — a pass is not idempotent in general (moved
  // boxes change the visibility partners), and the cached system is only
  // REUSED (the corruption therefore only visible) on an all-clean pass;
  // moving geometry would re-emit over the corrupted cache and wash the
  // fault away.
  const auto converge = [&engine](std::vector<LayerBox> boxes, bool y_axis) {
    for (int pass = 0; pass < 16; ++pass) {
      const FlatResult result =
          y_axis ? engine.compact_y(boxes) : engine.compact_x(boxes);
      if (result.boxes == boxes) return boxes;
      boxes = result.boxes;
    }
    ADD_FAILURE() << "axis did not converge";
    return boxes;
  };
  const std::vector<LayerBox> x_fix = converge(field.boxes, /*y_axis=*/false);
  engine.corrupt_cached_system_for_testing(false);
  try {
    engine.compact_x(x_fix);
    FAIL() << "corrupted cache must not pass the byte-identity check";
  } catch (const IncrementalDivergence&) {
    // The specific type, not just rsg::Error — the schedule's rethrow
    // logic keys on it.
  }
  // The y axis has its own cache and its own check.
  const std::vector<LayerBox> y_fix = converge(x_fix, /*y_axis=*/true);
  engine.corrupt_cached_system_for_testing(true);
  EXPECT_THROW(engine.compact_y(y_fix), IncrementalDivergence);
}

TEST(Incremental, WarmStartMatchesColdForBothWorklistSolvers) {
  // Whatever the seed — the exact solution, garbage, or an overshoot that
  // fails verification — the warm-started solvers must return exactly the
  // cold solution (the least/greatest fixpoints are unique).
  for (std::uint32_t seed = 0; seed < 60; ++seed) {
    const SynthField field = make_random_field(seed, 5 + static_cast<int>(seed % 25));
    std::vector<CompactionBox> boxes;
    for (std::size_t i = 0; i < field.boxes.size(); ++i) {
      CompactionBox cb;
      cb.geometry = field.boxes[i];
      cb.stretchable = field.stretchable[i];
      boxes.push_back(cb);
    }
    ConstraintSystem cold;
    add_box_variables(cold, boxes);
    generate_constraints(cold, boxes, CompactionRules::mosis());
    const SolveStats cold_stats = solve_leftmost_worklist(cold);
    ASSERT_TRUE(cold_stats.converged);

    const std::vector<Coord> exact = cold.values;
    const std::vector<Coord>* exact_ptr = &exact;
    std::vector<Coord> overshoot = exact;
    std::vector<Coord> garbage = exact;
    for (std::size_t v = 0; v < exact.size(); ++v) {
      if (v % 3 == 0) overshoot[v] += 7 + static_cast<Coord>(v % 5);
      garbage[v] = static_cast<Coord>((v * 7919 + seed) % 97) - 11;
    }
    for (const std::vector<Coord>* warm_seed :
         {exact_ptr, const_cast<const std::vector<Coord>*>(&overshoot),
          const_cast<const std::vector<Coord>*>(&garbage)}) {
      ConstraintSystem warm = cold;
      const SolveStats stats = solve_leftmost_worklist(warm, warm_seed);
      ASSERT_TRUE(stats.converged);
      ASSERT_TRUE(stats.warm_attempted);
      ASSERT_EQ(warm.values, exact) << "seed " << seed;
    }
    {
      // The exact seed must be accepted outright, with its effectiveness
      // reported.
      ConstraintSystem warm = cold;
      const SolveStats stats = solve_leftmost_worklist(warm, &exact);
      EXPECT_TRUE(stats.warm_accepted);
      EXPECT_EQ(stats.pops, 0u);
    }

    if (exact.empty()) continue;
    const Coord width = *std::max_element(exact.begin(), exact.end());
    std::vector<Coord> cold_upper;
    solve_rightmost_worklist(cold, width, cold_upper);
    for (const std::vector<Coord>* warm_seed :
         {exact_ptr, const_cast<const std::vector<Coord>*>(&overshoot),
          const_cast<const std::vector<Coord>*>(&garbage),
          const_cast<const std::vector<Coord>*>(&cold_upper)}) {
      ConstraintSystem warm = cold;
      std::vector<Coord> upper;
      const SolveStats stats = solve_rightmost_worklist(warm, width, upper, warm_seed);
      ASSERT_TRUE(stats.converged);
      ASSERT_TRUE(stats.warm_attempted);
      ASSERT_EQ(upper, cold_upper) << "seed " << seed;
    }
    {
      ConstraintSystem warm = cold;
      std::vector<Coord> upper;
      const SolveStats stats = solve_rightmost_worklist(warm, width, upper, &cold_upper);
      EXPECT_TRUE(stats.warm_accepted);
      EXPECT_EQ(stats.pops, 0u);
    }
  }
}

TEST(Incremental, WarmStartStillDetectsPositiveCycles) {
  ConstraintSystem system;
  const int a = system.add_variable(0);
  const int b = system.add_variable(10);
  system.add_constraint(a, b, 5, ConstraintKind::kSpacing);
  system.add_constraint(b, a, 5, ConstraintKind::kSpacing);
  const std::vector<Coord> seed{0, 10};
  EXPECT_THROW(solve_leftmost_worklist(system, &seed), Error);
  std::vector<Coord> upper;
  EXPECT_THROW(solve_rightmost_worklist(system, 100, upper, &seed), Error);
}

TEST(Incremental, BothAxesInfeasibleTerminatesScheduleEarly) {
  // A best-effort schedule where BOTH axes are infeasible can never make
  // progress: it must stop after one round with converged = false instead
  // of looping to the cap. The E10 PLA's generated geometry is x-infeasible
  // (rigid overlaps tighter than the MOSIS table); its transpose is then
  // y-infeasible, and the far-displaced union is infeasible on both axes.
  pla::TruthTable table = pla::TruthTable::parse(
      "10 10\n"
      "01 11\n"
      "-1 01\n");
  Generator generator;
  const GeneratorResult pla = pla::generate_pla(generator, table);
  const std::vector<LayerBox> flat = flatten_boxes(*pla.top);
  std::vector<LayerBox> both = flat;
  for (const LayerBox& lb : flat) {
    both.push_back({lb.layer, Box(lb.box.lo.y, lb.box.lo.x + 100000, lb.box.hi.y,
                                  lb.box.hi.x + 100000)});
  }
  XyScheduleOptions options;
  options.best_effort = true;
  options.max_rounds = 8;
  options.stop_when_converged = false;
  for (const bool incremental : {false, true}) {
    XyScheduleOptions run = options;
    run.incremental = incremental;
    const XyScheduleResult result =
        compact_flat_schedule(both, CompactionRules::mosis(), {}, run);
    EXPECT_EQ(result.rounds, 1) << "incremental " << incremental;
    EXPECT_FALSE(result.converged) << "incremental " << incremental;
    EXPECT_TRUE(result.x_infeasible) << "incremental " << incremental;
    EXPECT_TRUE(result.y_infeasible) << "incremental " << incremental;
    ASSERT_EQ(result.round_stats.size(), 1u);
    EXPECT_TRUE(result.round_stats[0].x_skipped);
    EXPECT_TRUE(result.round_stats[0].y_skipped);
    EXPECT_EQ(result.boxes, both);
  }
}

}  // namespace
}  // namespace rsg::compact
