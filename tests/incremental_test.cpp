// Equivalence and behavior tests for the incremental x/y compaction engine
// (compact/incremental.hpp) against the test-only oracle
// (oracle/scratch_schedule.hpp): over 200+ seeded fields, with and without
// the rubber band, every engine pass's constraint stream equals a scratch
// generation at one band and at four, and the schedules' geometry equals
// the scratch schedule's; the dirty-band locality contract (a single moved
// box re-sweeps exactly the bands its shadow window touches), warm-start
// exactness for both worklist solvers, and the both-axes-infeasible early
// termination of the schedule.
#include "compact/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "compact/synth_design.hpp"
#include "compact/xy_schedule.hpp"
#include "layout/flatten.hpp"
#include "oracle/scratch_schedule.hpp"
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
  // The engine's contract: over a multi-round schedule, with and without
  // the rubber band, the production schedule and the engine at one band
  // and at four reproduce the scratch schedule's geometry exactly, and the
  // CONSTRAINT STREAM of every engine pass is byte-identical to a
  // from-scratch generation (the checked schedule throws on any
  // divergence). The production schedule, which runs the engine at one
  // band, does the checked one-band schedule's work round for round.
  XyScheduleOptions schedule;
  schedule.max_rounds = 3;
  schedule.stop_when_converged = false;
  const CompactionRules rules = CompactionRules::mosis();

  for (const bool rubber : {false, true}) {
    FlatOptions options;
    options.apply_rubber_band = rubber;
    std::uint32_t seed = 0;
    for (const SynthField& field : identity_fields()) {
      const XyScheduleResult scratch =
          oracle::scratch_flat_schedule(field.boxes, rules, options, schedule, field.stretchable);
      const XyScheduleResult production =
          compact_flat_schedule(field.boxes, rules, options, schedule, field.stretchable);
      ASSERT_EQ(production.boxes, scratch.boxes) << "rubber " << rubber << " seed " << seed;
      ASSERT_EQ(production.rounds, scratch.rounds) << "rubber " << rubber << " seed " << seed;
      for (const int bands : {1, 4}) {
        const XyScheduleResult checked = oracle::checked_flat_schedule(
            field.boxes, rules, options, schedule, field.stretchable, bands);
        ASSERT_EQ(checked.boxes, scratch.boxes)
            << "rubber " << rubber << " bands " << bands << " seed " << seed;
        ASSERT_EQ(checked.width_after, scratch.width_after) << "bands " << bands;
        ASSERT_EQ(checked.height_after, scratch.height_after) << "bands " << bands;
        ASSERT_EQ(checked.rounds, scratch.rounds) << "bands " << bands << " seed " << seed;
        if (bands == 1) {
          ASSERT_EQ(oracle::round_stats_divergence(production, checked), "")
              << "rubber " << rubber << " seed " << seed;
        }
      }
      ++seed;
    }
  }
}

TEST(Incremental, LateRoundsRepriseCleanBandsAndWarmStarts) {
  // On a field that keeps converging, the late rounds of the incremental
  // schedule must actually reuse: partner entries spliced from clean bands
  // and warm-started solves with zero worklist pops — at the production
  // schedule's one band and at four.
  const SynthField field = make_grid_field(12, 12);
  XyScheduleOptions options;
  options.max_rounds = 8;
  options.stop_when_converged = false;
  for (const int bands : {1, 4}) {
    const XyScheduleResult result = oracle::checked_flat_schedule(
        field.boxes, CompactionRules::mosis(), {}, options, field.stretchable, bands);
    ASSERT_TRUE(result.converged) << "bands " << bands;
    ASSERT_EQ(static_cast<int>(result.round_stats.size()), result.rounds);
    const RoundStats& last = result.round_stats.back();
    EXPECT_EQ(last.partners_reswept, 0u) << "bands " << bands;
    EXPECT_GT(last.partners_reused, 0u) << "bands " << bands;
    EXPECT_EQ(last.solve_pops, 0u) << "bands " << bands;
    EXPECT_TRUE(last.warm_x) << "bands " << bands;
    EXPECT_TRUE(last.warm_y) << "bands " << bands;
  }
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
  IncrementalCompactor engine(CompactionRules::mosis(), {}, {}, /*bands=*/8);
  const FlatResult first = engine.compact_x(boxes);
  ASSERT_TRUE(engine.x_stats().full_build);
  EXPECT_EQ(oracle::stream_divergence(engine.x_system(), boxes, CompactionRules::mosis()), "");
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

  // And the spliced pass still emits the scratch stream and equals a
  // scratch compaction of the moved geometry.
  EXPECT_EQ(oracle::stream_divergence(engine.x_system(), moved, CompactionRules::mosis()), "");
  const FlatResult scratch = compact_flat(moved, CompactionRules::mosis());
  EXPECT_EQ(second.boxes, scratch.boxes);
}

TEST(Incremental, ResizedRigidBoxRefreshesTheWidthPrefix) {
  // A schedule never changes a rigid box's width, so the engine keeps each
  // axis's width/anchor constraints across passes. A caller that resizes
  // one must still get the scratch stream: the stream check flags a stale
  // prefix.
  const SynthField field = make_random_field(5, 20);
  const auto rigid = std::find(field.stretchable.begin(), field.stretchable.end(), false);
  ASSERT_NE(rigid, field.stretchable.end());
  IncrementalCompactor engine(CompactionRules::mosis(), {}, field.stretchable);
  std::vector<LayerBox> boxes = engine.compact_x(field.boxes).boxes;
  boxes[static_cast<std::size_t>(rigid - field.stretchable.begin())].box.hi.x += 3;
  const FlatResult resized = engine.compact_x(boxes);
  EXPECT_EQ(oracle::stream_divergence(engine.x_system(), boxes, CompactionRules::mosis(), {},
                                      field.stretchable),
            "");
  EXPECT_EQ(resized.boxes,
            compact_flat(boxes, CompactionRules::mosis(), {}, field.stretchable).boxes);
}

TEST(Incremental, StreamCheckFlagsACorruptedSystem) {
  // The stream check must be able to fail: the engine is byte-identical by
  // construction, so feed the check copies of a pass's system with one
  // constraint added, one dropped and one reweighted — what a cache
  // corrupted between passes would hand an all-clean pass.
  const SynthField field = make_random_field(3, 20);
  const CompactionRules rules = CompactionRules::mosis();
  IncrementalCompactor engine(rules, {}, field.stretchable);
  engine.compact_x(field.boxes);
  const ConstraintSystem& system = engine.x_system();
  ASSERT_EQ(oracle::stream_divergence(system, field.boxes, rules, {}, field.stretchable), "");
  ASSERT_GT(system.constraint_count(), 1u);

  ConstraintSystem added = system;
  added.add_constraint(0, 0, 1, ConstraintKind::kSpacing);
  EXPECT_NE(oracle::stream_divergence(added, field.boxes, rules, {}, field.stretchable), "");
  ConstraintSystem dropped = system;
  dropped.truncate_constraints(system.constraint_count() - 1);
  EXPECT_NE(oracle::stream_divergence(dropped, field.boxes, rules, {}, field.stretchable), "");
  ConstraintSystem reweighted = dropped;
  Constraint last = system.constraints().back();
  ++last.weight;
  reweighted.add_constraint(last);
  EXPECT_NE(oracle::stream_divergence(reweighted, field.boxes, rules, {}, field.stretchable), "");
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
  const CompactionRules rules = CompactionRules::mosis();
  const std::vector<std::pair<const char*, XyScheduleResult>> runs = {
      {"production", compact_flat_schedule(both, rules, {}, options)},
      {"scratch", oracle::scratch_flat_schedule(both, rules, {}, options)},
      {"checked, 1 band", oracle::checked_flat_schedule(both, rules, {}, options, {}, 1)},
      {"checked, 4 bands", oracle::checked_flat_schedule(both, rules, {}, options, {}, 4)},
  };
  for (const auto& [name, result] : runs) {
    EXPECT_EQ(result.rounds, 1) << name;
    EXPECT_FALSE(result.converged) << name;
    EXPECT_TRUE(result.x_infeasible) << name;
    EXPECT_TRUE(result.y_infeasible) << name;
    ASSERT_EQ(result.round_stats.size(), 1u) << name;
    EXPECT_TRUE(result.round_stats[0].x_skipped) << name;
    EXPECT_TRUE(result.round_stats[0].y_skipped) << name;
    EXPECT_EQ(result.boxes, both) << name;
  }
}

}  // namespace
}  // namespace rsg::compact
