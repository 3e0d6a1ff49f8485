// Equivalence and behavior tests for the incremental x/y compaction engine
// (compact/incremental.hpp) against the test-only oracle
// (oracle/scratch_schedule.hpp): over 200+ seeded fields, with and without
// the rubber band, every engine pass's constraint stream equals a scratch
// generation at one band and at four, and the schedules' geometry equals
// the scratch schedule's; the dirty-band locality contract (a single moved
// box re-sweeps exactly the bands its shadow window touches), the kept
// sweep order and the moved-only refresh of initial abscissas over inputs
// that move 0, 1, a few, about an eighth and all of the boxes, warm-start
// exactness for both worklist solvers, and the both-axes-infeasible early
// termination of the schedule.
#include "compact/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>

#include "compact/synth_design.hpp"
#include "compact/xy_schedule.hpp"
#include "layout/flatten.hpp"
#include "oracle/scratch_schedule.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
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
      ASSERT_EQ(production.converged, scratch.converged)
          << "rubber " << rubber << " seed " << seed;
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
  ASSERT_TRUE(engine.stats(/*y_axis=*/false).full_build);
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
  const IncrementalPassStats& stats = engine.stats(/*y_axis=*/false);
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

// Columns of boxes sharing one x extent each: `columns` columns of
// `rows` metal1 and poly boxes, box k * columns + c in column c, so a box
// moved onto another column's extent ties there with boxes of lower and
// of higher index, and the sweep order must break each tie by index.
SynthField column_groups_field(int columns, int rows) {
  SynthField field;
  for (int k = 0; k < rows; ++k) {
    for (int c = 0; c < columns; ++c) {
      const Layer layer = (c + k) % 3 == 0 ? Layer::kPoly : Layer::kMetal1;
      field.boxes.push_back({layer, Box(c * 20, k * 30, c * 20 + 8, k * 30 + 10)});
      field.stretchable.push_back(k % 2 == 0);
    }
  }
  return field;
}

TEST(Incremental, KeptSweepOrderAndMovedOnlyRefreshMatchScratch) {
  // One engine per field and band count, driven through inputs that move
  // 0 boxes, 1, a few, just under and just over an eighth of them, and all
  // of them, then a uniform x shift (normalization leaves nothing moved), a
  // y-only move (the order is kept as it is) and a layer change (a full
  // rebuild). Each input gets an x pass and a y pass; every pass's system,
  // initial abscissas and constraint order, must equal a scratch
  // generation's. The x pass's telemetry shows which order path ran: x
  // moves of up to an eighth of the boxes are merged into the kept order,
  // more fall back to a sortedness check or a full sort.
  const CompactionRules rules = CompactionRules::mosis();
  const std::vector<SynthField> fields = {make_random_field(7, 40), make_random_field(11, 90),
                                          column_groups_field(8, 12)};
  for (const int bands : {1, 4}) {
    for (std::size_t f = 0; f < fields.size(); ++f) {
      const SynthField& field = fields[f];
      const std::size_t n = field.boxes.size();
      ASSERT_GE(n, 40u);
      IncrementalCompactor engine(rules, {}, field.stretchable, bands);
      std::vector<LayerBox> input = field.boxes;
      std::mt19937 rng(static_cast<std::uint32_t>(f * 31 + static_cast<std::size_t>(bands)));
      const auto at = [&](const std::string& step) {
        return "bands " + std::to_string(bands) + " field " + std::to_string(f) + " " + step;
      };
      const auto pass = [&](const std::string& step) {
        // An infeasible system still leaves the pass's system to check.
        try {
          engine.compact_x(input);
        } catch (const Error&) {
        }
        EXPECT_EQ(oracle::stream_divergence(engine.x_system(), input, rules, {},
                                            field.stretchable),
                  "")
            << at(step) << " (x)";
        const IncrementalPassStats x = engine.stats(/*y_axis=*/false);
        try {
          engine.compact_y(input);
        } catch (const Error&) {
        }
        EXPECT_EQ(oracle::stream_divergence(engine.y_system(), transposed_boxes(input), rules, {},
                                            field.stretchable),
                  "")
            << at(step) << " (y)";
        return x;
      };
      // Moves k boxes in x, none of them on the leftmost edge (so the
      // normalization shift stays put): each onto another box's x extent,
      // where it ties, or right by a few units when that is where it is.
      const auto move_x = [&](std::size_t k) {
        Coord min_x = input.front().box.lo.x;
        for (const LayerBox& lb : input) min_x = std::min(min_x, lb.box.lo.x);
        std::vector<std::size_t> movable;
        for (std::size_t i = 0; i < n; ++i) {
          if (input[i].box.lo.x != min_x) movable.push_back(i);
        }
        std::shuffle(movable.begin(), movable.end(), rng);
        ASSERT_GE(movable.size(), k);
        for (std::size_t m = 0; m < k; ++m) {
          Box& box = input[movable[m]].box;
          const Box& target = input[rng() % n].box;
          if (target.lo.x != box.lo.x && target.lo.x != min_x) {
            box = Box(target.lo.x, box.lo.y, target.hi.x, box.hi.y);
          } else {
            box = box.translated({3 + static_cast<Coord>(rng() % 5), 0});
          }
        }
      };

      EXPECT_TRUE(pass("first").full_build) << at("first");
      const IncrementalPassStats still = pass("unchanged");
      EXPECT_EQ(still.boxes_moved, 0u) << at("unchanged");
      EXPECT_EQ(still.shards_reswept, 0) << at("unchanged");
      for (const std::size_t k : {std::size_t{1}, std::size_t{3}, n / 8}) {
        move_x(k);
        const IncrementalPassStats merged = pass("x move of " + std::to_string(k));
        EXPECT_EQ(merged.boxes_moved, k) << at("x move of " + std::to_string(k));
        EXPECT_EQ(merged.order_merged, k) << at("x move of " + std::to_string(k));
        EXPECT_FALSE(merged.order_sorted) << at("x move of " + std::to_string(k));
      }
      move_x(n / 8 + 1);
      const IncrementalPassStats over = pass("x move over an eighth");
      EXPECT_EQ(over.boxes_moved, n / 8 + 1) << at("x move over an eighth");
      EXPECT_EQ(over.order_merged, 0u) << at("x move over an eighth");
      // All of them: the mirror image reverses the order.
      for (LayerBox& lb : input) lb.box = Box(-lb.box.hi.x, lb.box.lo.y, -lb.box.lo.x, lb.box.hi.y);
      const IncrementalPassStats all = pass("mirror");
      EXPECT_GT(all.boxes_moved, n / 2) << at("mirror");
      EXPECT_TRUE(all.order_sorted) << at("mirror");
      for (LayerBox& lb : input) lb.box = lb.box.translated({37, 0});
      EXPECT_EQ(pass("uniform x shift").boxes_moved, 0u) << at("uniform x shift");
      for (std::size_t i = 0; i < n; i += 5) input[i].box = input[i].box.translated({0, 4});
      const IncrementalPassStats y_only = pass("y-only move");
      EXPECT_EQ(y_only.boxes_moved, (n + 4) / 5) << at("y-only move");
      EXPECT_EQ(y_only.order_merged, 0u) << at("y-only move");
      EXPECT_FALSE(y_only.order_sorted) << at("y-only move");
      input[n / 2].layer = input[n / 2].layer == Layer::kPoly ? Layer::kMetal1 : Layer::kPoly;
      const IncrementalPassStats relayered = pass("layer change");
      EXPECT_TRUE(relayered.order_sorted) << at("layer change");
      EXPECT_EQ(relayered.shards_reswept, relayered.shards_total) << at("layer change");
    }
  }
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
  const GeneratorResult pla = pla::generate_pla(table);
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

TEST(Incremental, OracleSchedulesCheckpointLikeProduction) {
  // The oracle's schedules run compact_flat_schedule's own round loop, so
  // their checkpoint sinks see the production schedule's state round for
  // round, and the scratch schedule resumed from a production checkpoint
  // ends where production ends. The inputs: two seeded fields and the E10
  // PLA, whose x pass is infeasible every round.
  pla::TruthTable table = pla::TruthTable::parse(
      "10 10\n"
      "01 11\n"
      "-1 01\n");
  const std::vector<LayerBox> pla = flatten_boxes(*pla::generate_pla(table).top);
  std::vector<SynthField> fields = {make_random_field(23, 25), make_random_field(41, 30)};
  fields.push_back({pla, std::vector<bool>(pla.size(), false)});
  XyScheduleOptions schedule;
  schedule.max_rounds = 4;
  schedule.stop_when_converged = false;
  schedule.best_effort = true;
  const CompactionRules rules = CompactionRules::mosis();
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const SynthField& field = fields[f];
    std::vector<XyCheckpoint> production;
    std::vector<XyCheckpoint> scratch;
    std::vector<XyCheckpoint> checked;
    schedule.checkpoint_sink = [&](const XyCheckpoint& ck) { production.push_back(ck); };
    const XyScheduleResult want =
        compact_flat_schedule(field.boxes, rules, {}, schedule, field.stretchable);
    schedule.checkpoint_sink = [&](const XyCheckpoint& ck) { scratch.push_back(ck); };
    oracle::scratch_flat_schedule(field.boxes, rules, {}, schedule, field.stretchable);
    schedule.checkpoint_sink = [&](const XyCheckpoint& ck) { checked.push_back(ck); };
    oracle::checked_flat_schedule(field.boxes, rules, {}, schedule, field.stretchable);
    ASSERT_EQ(production.size(), 4u) << "field " << f;
    for (const std::vector<XyCheckpoint>* oracle_run : {&scratch, &checked}) {
      ASSERT_EQ(oracle_run->size(), production.size()) << "field " << f;
      for (std::size_t r = 0; r < production.size(); ++r) {
        const XyCheckpoint& a = production[r];
        const XyCheckpoint& b = (*oracle_run)[r];
        const std::string at = "field " + std::to_string(f) + " round " + std::to_string(r + 1);
        EXPECT_EQ(a.rounds_done, b.rounds_done) << at;
        EXPECT_EQ(a.converged, b.converged) << at;
        EXPECT_EQ(a.x_infeasible, b.x_infeasible) << at;
        EXPECT_EQ(a.y_infeasible, b.y_infeasible) << at;
        EXPECT_EQ(a.width_before, b.width_before) << at;
        EXPECT_EQ(a.height_before, b.height_before) << at;
        EXPECT_EQ(a.boxes, b.boxes) << at;
        EXPECT_EQ(a.stretchable, b.stretchable) << at;
      }
    }
    EXPECT_EQ(production.back().x_infeasible, f == 2) << "field " << f;

    schedule.checkpoint_sink = nullptr;
    schedule.resume = &production[1];
    const XyScheduleResult resumed =
        oracle::scratch_flat_schedule(field.boxes, rules, {}, schedule, field.stretchable);
    schedule.resume = nullptr;
    EXPECT_EQ(resumed.boxes, want.boxes) << "field " << f;
    EXPECT_EQ(resumed.rounds, want.rounds) << "field " << f;
    EXPECT_EQ(resumed.converged, want.converged) << "field " << f;
  }
}

}  // namespace
}  // namespace rsg::compact
