// Tests for the flat compactor: Bellman–Ford solving (§6.4.2), the edge-order
// pass counts of the pass-based oracle, the rubber-band jog removal
// (Figure 6.8), and DRC-validity of the compacted result.
#include "compact/flat_compactor.hpp"

#include <gtest/gtest.h>

#include "compact/incremental.hpp"
#include "compact/xy_schedule.hpp"
#include "layout/design_rules.hpp"
#include "oracle/pass_based_solvers.hpp"
#include "oracle/reference_generators.hpp"
#include "support/error.hpp"

namespace rsg::compact {
namespace {

TEST(BellmanFord, SortedOrderConvergesInOnePassOnChains) {
  // A left-to-right chain whose initial order is preserved: §6.4.2 promises
  // exactly one (productive) relaxation pass.
  ConstraintSystem system;
  std::vector<int> vars;
  for (int i = 0; i < 50; ++i) {
    vars.push_back(system.add_variable(i * 10));
  }
  for (int i = 1; i < 50; ++i) {
    system.add_constraint(vars[static_cast<std::size_t>(i - 1)],
                          vars[static_cast<std::size_t>(i)], 4, ConstraintKind::kSpacing);
  }
  const SolveStats sorted = oracle::solve_leftmost(system, oracle::EdgeOrder::kSorted);
  EXPECT_TRUE(sorted.converged);
  EXPECT_EQ(sorted.passes, 2);  // one productive pass + one verification pass

  const SolveStats reversed = oracle::solve_leftmost(system, oracle::EdgeOrder::kReversed);
  EXPECT_TRUE(reversed.converged);
  EXPECT_GT(reversed.passes, 10);  // worst case approaches |V|
  // Both orders give the same (least) solution.
  EXPECT_EQ(system.values[49], 49 * 4);
}

TEST(BellmanFord, InfeasibleCycleThrows) {
  ConstraintSystem system;
  const int a = system.add_variable(0);
  const int b = system.add_variable(10);
  system.add_constraint(a, b, 5, ConstraintKind::kSpacing);
  system.add_constraint(b, a, 5, ConstraintKind::kSpacing);  // a >= b + 5 too
  EXPECT_THROW(oracle::solve_leftmost(system), Error);
}

TEST(BellmanFord, PitchTermsShiftBounds) {
  ConstraintSystem system;
  const int a = system.add_variable(0);
  const int b = system.add_variable(0);
  const int pitch = system.add_pitch(10);
  // b - a + λ >= 25 with λ fixed at 10: b >= a + 15.
  Constraint c;
  c.from = a;
  c.to = b;
  c.weight = 25;
  c.pitch = pitch;
  c.pitch_coeff = 1;
  system.add_constraint(c);
  solve_leftmost_worklist(system);
  EXPECT_EQ(system.values[static_cast<std::size_t>(b)], 15);
}

TEST(ConstraintSystem, RejectsPitchIndexBelowMinusOne) {
  // Regression: pitch -2 used to be accepted and silently treated as "no
  // pitch" by every consumer while pitch_coeff was ignored.
  ConstraintSystem system;
  const int a = system.add_variable(0);
  const int b = system.add_variable(0);
  Constraint c;
  c.from = a;
  c.to = b;
  c.weight = 1;
  c.pitch = -2;
  EXPECT_THROW(system.add_constraint(c), Error);
}

TEST(ConstraintSystem, RejectsPitchCoeffWithoutPitchVariable) {
  ConstraintSystem system;
  const int a = system.add_variable(0);
  const int b = system.add_variable(0);
  Constraint c;
  c.from = a;
  c.to = b;
  c.weight = 1;
  c.pitch = -1;
  c.pitch_coeff = 1;
  EXPECT_THROW(system.add_constraint(c), Error);
}

TEST(FlatCompactor, PacksASparseRow) {
  std::vector<LayerBox> boxes = {
      {Layer::kMetal1, Box(0, 0, 10, 4)},
      {Layer::kMetal1, Box(40, 0, 50, 4)},
      {Layer::kMetal1, Box(90, 0, 100, 4)},
  };
  const FlatResult result = compact_flat(boxes, CompactionRules::mosis());
  EXPECT_EQ(result.width_before, 100);
  EXPECT_EQ(result.width_after, 10 + 6 + 10 + 6 + 10);
  EXPECT_TRUE(check_design_rules(result.boxes, DesignRules::mosis_lambda()).empty());
}

TEST(FlatCompactor, CompactionIsIdempotent) {
  std::vector<LayerBox> boxes = {
      {Layer::kMetal1, Box(0, 0, 10, 4)},
      {Layer::kMetal1, Box(40, 0, 50, 4)},
      {Layer::kPoly, Box(70, 0, 74, 20)},
  };
  const FlatResult once = compact_flat(boxes, CompactionRules::mosis());
  const FlatResult twice = compact_flat(once.boxes, CompactionRules::mosis());
  EXPECT_EQ(once.width_after, twice.width_after);
  EXPECT_EQ(once.boxes, twice.boxes);
}

TEST(FlatCompactor, NaiveConstraintsGiveWiderResult) {
  // Figure 6.5: a fragmented stretchable bus.
  std::vector<LayerBox> boxes;
  std::vector<bool> stretchable;
  for (int i = 0; i < 8; ++i) {
    boxes.push_back({Layer::kDiffusion, Box(i * 10, 0, (i + 1) * 10, 4)});
    stretchable.push_back(true);
  }
  const FlatResult bad = oracle::compact_flat_naive(boxes, CompactionRules::mosis(), stretchable);
  const FlatResult good = compact_flat(boxes, CompactionRules::mosis(), {}, stretchable);
  // Naive: every adjacent pair held apart by diffusion spacing -> >= n*λ.
  EXPECT_GE(bad.width_after, 8 * 6);
  // Visibility + nets: the bus shrinks to the minimum diffusion width.
  EXPECT_EQ(good.width_after, 4);
  EXPECT_LT(good.width_after, bad.width_after / 5);
}

TEST(FlatCompactor, JogRemovalByRubberBand) {
  // Figure 6.8: a vertical wire of three stacked segments, with an
  // unrelated obstacle pushing only the middle segment's left bound. The
  // leftmost pack misaligns the segments (jog); the rubber band restores
  // alignment without growing the width.
  std::vector<LayerBox> boxes = {
      {Layer::kMetal1, Box(30, 0, 34, 20)},    // bottom segment
      {Layer::kMetal1, Box(30, 20, 34, 40)},   // middle segment
      {Layer::kMetal1, Box(30, 40, 34, 60)},   // top segment
      {Layer::kMetal1, Box(0, 26, 20, 34)},    // obstacle at middle height only
  };
  FlatOptions plain;
  const FlatResult packed = compact_flat(boxes, CompactionRules::mosis(), plain);
  FlatOptions banded = plain;
  banded.apply_rubber_band = true;
  const FlatResult smooth = compact_flat(boxes, CompactionRules::mosis(), banded);

  EXPECT_EQ(packed.width_after, smooth.width_after);  // no width regression
  // Leftmost packing misaligns the bottom segment from the obstructed
  // middle one — the Figure 6.8 jog.
  EXPECT_NE(packed.boxes[0].box.lo.x, packed.boxes[1].box.lo.x);
  // After the rubber band, the wire segments align again.
  EXPECT_GT(smooth.rubber.jog_before, smooth.rubber.jog_after);
  EXPECT_EQ(smooth.rubber.jog_after, 0);
  EXPECT_EQ(smooth.boxes[0].box.lo.x, smooth.boxes[1].box.lo.x);
  EXPECT_EQ(smooth.boxes[1].box.lo.x, smooth.boxes[2].box.lo.x);
  EXPECT_TRUE(check_design_rules(smooth.boxes, DesignRules::mosis_lambda()).empty());
}

TEST(FlatCompactor, StretchableMaskValidation) {
  std::vector<LayerBox> boxes = {{Layer::kMetal1, Box(0, 0, 10, 4)}};
  EXPECT_THROW(compact_flat(boxes, CompactionRules::mosis(), {}, {true, false}), Error);
}

TEST(FlatCompactor, EmptyLayoutIsANoop) {
  const FlatResult result = compact_flat({}, CompactionRules::mosis());
  EXPECT_EQ(result.width_after, 0);
  EXPECT_TRUE(result.boxes.empty());
}


TEST(FlatCompactor, YCompactionByTransposition) {
  std::vector<LayerBox> boxes = {
      {Layer::kMetal1, Box(0, 0, 4, 10)},
      {Layer::kMetal1, Box(0, 40, 4, 50)},
  };
  IncrementalCompactor engine(CompactionRules::mosis(), {});
  const FlatResult result = engine.compact_y(boxes);
  EXPECT_EQ(result.width_before, 50);        // height, through the transposition
  EXPECT_EQ(result.width_after, 10 + 6 + 10);
  // x extents untouched.
  EXPECT_EQ(result.boxes[0].box.lo.x, 0);
  EXPECT_EQ(result.boxes[0].box.hi.x, 4);
}

TEST(FlatCompactor, TwoAxisCompaction) {
  std::vector<LayerBox> boxes = {
      {Layer::kMetal1, Box(0, 0, 10, 4)},
      {Layer::kMetal1, Box(40, 30, 50, 34)},
  };
  XyScheduleOptions one_round;
  one_round.max_rounds = 1;
  const XyScheduleResult result =
      compact_flat_schedule(boxes, CompactionRules::mosis(), {}, one_round);
  // The boxes are far apart in y, so the x pass stacks them both at x = 0.
  EXPECT_EQ(result.width_after, 10);
  // Then the y pass pulls them to the metal spacing.
  EXPECT_EQ(result.height_after, 4 + 6 + 4);
  EXPECT_TRUE(check_design_rules(result.boxes, DesignRules::mosis_lambda()).empty());
}

TEST(FlatCompactor, NegativeCoordinatesAreNormalized) {
  std::vector<LayerBox> boxes = {
      {Layer::kMetal1, Box(-100, 0, -90, 4)},
      {Layer::kMetal1, Box(-50, 0, -40, 4)},
  };
  const FlatResult result = compact_flat(boxes, CompactionRules::mosis());
  EXPECT_EQ(result.width_after, 26);
  EXPECT_EQ(result.boxes[0].box.lo.x, 0);
}

}  // namespace
}  // namespace rsg::compact
