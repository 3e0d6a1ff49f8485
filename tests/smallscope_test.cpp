// Exhaustive small-scope checks of constraint generation and the longest-
// path solvers: every input up to a small size, enumerated instead of
// sampled — Proper's "significant examples", the smallest inputs that
// separate right from wrong.
//
// The inputs are every ordered pair of boxes on diffusion, poly, metal1,
// contact cut and implant, each box's x and y extents one of the 10
// intervals with endpoints in {0, 2, 4, 8, 14}. That covers all 13 of
// Allen's interval relations on each axis, and gaps of 0, 2, 4 and 6
// against the MOSIS spacings of 2, 4 and 6. Both boxes are rigid or both
// stretchable: 500,000 layouts. On each:
//   (a) generate_constraints equals the test-only oracle's reference
//       generator byte for byte;
//   (b) a 2-band partition through the shard API equals the 1-band stream;
//   (c) the layout translated by (7, -5) generates the identical stream;
//   (d) solve_leftmost_worklist equals the oracle's pass-based
//       solve_leftmost, and solve_rightmost_worklist equals its
//       solve_rightmost at the leftmost width.
// A failing check reports how many layouts fail it and the first one in
// enumeration order.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "compact/bellman_ford.hpp"
#include "compact/scanline.hpp"
#include "oracle/pass_based_solvers.hpp"
#include "oracle/reference_generators.hpp"
#include "support/error.hpp"

namespace rsg::compact {
namespace {

constexpr Layer kLayers[] = {Layer::kDiffusion, Layer::kPoly, Layer::kMetal1,
                             Layer::kContactCut, Layer::kImplant};
constexpr Coord kEndpoints[] = {0, 2, 4, 8, 14};

// Every box one layout may hold: each layer, x interval and y interval.
std::vector<LayerBox> single_boxes() {
  std::vector<std::pair<Coord, Coord>> intervals;
  for (std::size_t i = 0; i < std::size(kEndpoints); ++i) {
    for (std::size_t j = i + 1; j < std::size(kEndpoints); ++j) {
      intervals.emplace_back(kEndpoints[i], kEndpoints[j]);
    }
  }
  std::vector<LayerBox> boxes;
  for (const Layer layer : kLayers) {
    for (const auto& [x0, x1] : intervals) {
      for (const auto& [y0, y1] : intervals) boxes.push_back({layer, Box(x0, y0, x1, y1)});
    }
  }
  return boxes;
}

bool same_stream(const ConstraintSystem& a, const ConstraintSystem& b) {
  if (a.constraint_count() != b.constraint_count()) return false;
  for (std::size_t i = 0; i < a.constraint_count(); ++i) {
    const Constraint& x = a.constraints()[i];
    const Constraint& y = b.constraints()[i];
    if (x.from != y.from || x.to != y.to || x.weight != y.weight || x.pitch != y.pitch ||
        x.pitch_coeff != y.pitch_coeff || x.kind != y.kind) {
      return false;
    }
  }
  return true;
}

// The stream of `boxes` swept in `bands` y bands through the shard API.
void generate_in_bands(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                       int bands) {
  const CompactionRules rules = CompactionRules::mosis();
  const std::vector<std::size_t> order = sweep_order(boxes);
  const std::vector<Coord> cuts = band_cuts(boxes, bands);
  std::vector<SweepShard> shards(static_cast<std::size_t>(kNumLayers) * (cuts.size() - 1));
  std::vector<std::size_t> all(shards.size());
  std::iota(all.begin(), all.end(), 0);
  sweep_shards(boxes, order, rules, cuts, all, shards, /*threads=*/1);
  std::vector<const SweepShard*> views;
  for (const SweepShard& shard : shards) views.push_back(&shard);
  emit_constraints_from_shards(system, boxes, order, rules, views);
}

// Whether the worklist solvers reach the pass-based oracle's verdict on
// `system`: the same leftmost values, and the same rightmost bounds at the
// leftmost width, or an infeasibility error from both.
bool solvers_agree(const ConstraintSystem& system) {
  ConstraintSystem pass = system;
  ConstraintSystem work = system;
  bool pass_feasible = true;
  bool work_feasible = true;
  try {
    oracle::solve_leftmost(pass);
  } catch (const Error&) {
    pass_feasible = false;
  }
  try {
    solve_leftmost_worklist(work);
  } catch (const Error&) {
    work_feasible = false;
  }
  if (pass_feasible != work_feasible) return false;
  if (!pass_feasible) return true;
  if (pass.values != work.values) return false;
  const Coord width = *std::max_element(pass.values.begin(), pass.values.end());
  std::vector<Coord> pass_upper;
  std::vector<Coord> work_upper;
  oracle::solve_rightmost(pass, width, pass_upper);
  solve_rightmost_worklist(work, width, work_upper);
  return pass_upper == work_upper;
}

std::string describe(const std::vector<CompactionBox>& boxes) {
  std::ostringstream out;
  for (const CompactionBox& cb : boxes) {
    out << layer_name(cb.geometry.layer) << ' ' << cb.geometry.box << ' ';
  }
  out << (boxes.front().stretchable ? "(stretchable)" : "(rigid)");
  return out.str();
}

// One check's verdict: how many layouts fail it, and the first that did.
struct Check {
  const char* name;
  std::size_t failures;
  std::string first;
};

TEST(SmallScope, EveryTwoBoxLayoutAgreesWithTheOracles) {
  const CompactionRules rules = CompactionRules::mosis();
  const std::vector<LayerBox> singles = single_boxes();
  Check checks[] = {{"(a) sweep == reference", 0, ""},
                    {"(b) 2 bands == 1 band", 0, ""},
                    {"(c) translated by (7, -5) == original", 0, ""},
                    {"(d) worklist solvers == pass-based", 0, ""}};
  std::size_t layouts = 0;
  for (const bool stretchable : {false, true}) {
    for (const LayerBox& first : singles) {
      for (const LayerBox& second : singles) {
        ++layouts;
        std::vector<CompactionBox> boxes(2);
        boxes[0].geometry = first;
        boxes[1].geometry = second;
        for (CompactionBox& cb : boxes) cb.stretchable = stretchable;
        ConstraintSystem variables;
        add_box_variables(variables, boxes);

        ConstraintSystem sweep = variables;
        generate_constraints(sweep, boxes, rules);
        ConstraintSystem reference = variables;
        oracle::generate_constraints_reference(reference, boxes, rules);
        ConstraintSystem banded = variables;
        generate_in_bands(banded, boxes, /*bands=*/2);
        std::vector<CompactionBox> moved = boxes;
        for (CompactionBox& cb : moved) cb.geometry.box = cb.geometry.box.translated({7, -5});
        ConstraintSystem translated = variables;
        generate_constraints(translated, moved, rules);

        const bool ok[] = {same_stream(sweep, reference), same_stream(banded, sweep),
                           same_stream(translated, sweep), solvers_agree(sweep)};
        for (std::size_t k = 0; k < std::size(checks); ++k) {
          if (!ok[k] && checks[k].failures++ == 0) checks[k].first = describe(boxes);
        }
      }
    }
  }
  EXPECT_EQ(layouts, 500000u);
  for (const Check& check : checks) {
    EXPECT_EQ(check.failures, 0u) << check.name << " fails; first counterexample: "
                                  << check.first;
  }
}

}  // namespace
}  // namespace rsg::compact
