// Exhaustive small-scope checks of constraint generation and the longest-
// path solvers: every input up to a small size, enumerated instead of
// sampled — Proper's "significant examples", the smallest inputs that
// separate right from wrong.
//
// The 2-box corpus is every ordered pair of boxes on diffusion, poly,
// metal1, contact cut and implant, each box's x and y extents one of the
// 10 intervals with endpoints in {0, 2, 4, 8, 14}. That covers all 13 of
// Allen's interval relations on each axis, and gaps of 0, 2, 4 and 6
// against the MOSIS spacings of 2, 4 and 6. Both boxes are rigid or both
// stretchable: 500,000 layouts. On each:
//   (a) generate_constraints equals the test-only oracle's reference
//       generator byte for byte;
//   (b) a 2-band partition through the shard API equals the 1-band stream;
//   (c) the layout translated by (7, -5) generates the identical stream;
//   (d) solve_leftmost_worklist equals the oracle's pass-based
//       solve_leftmost, and solve_rightmost_worklist equals its
//       solve_rightmost at the leftmost width;
//   (e) the layout mirrored in y (every y extent negated) generates the
//       identical stream.
// The 3-box corpus checks net finding, which the 2-box corpus cannot
// exercise (there two touching boxes see each other directly): every
// multiset of three rigid boxes on one layer — metal1, poly or contact
// cut — each extent one of the 10 intervals with endpoints in
// {0, 2, 4, 8}, zero-length ones included, 515,100 layouts, under checks
// (a) and (e). The nets come from the sweep's partner lists, whose y*
// argument is asymmetric in y and needs a forward scan for zero-height
// boxes; the mirror check exercises the first and the zero-length extents
// the second.
// A failing check reports how many layouts fail it and the first one in
// enumeration order.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
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
constexpr Layer kNetLayers[] = {Layer::kMetal1, Layer::kPoly, Layer::kContactCut};
constexpr Coord kNetEndpoints[] = {0, 2, 4, 8};

// Every box on `layers` whose x and y extents have their endpoints in
// `endpoints`; zero-length extents too when `zero_length` is set.
template <std::size_t L, std::size_t E>
std::vector<LayerBox> single_boxes(const Layer (&layers)[L], const Coord (&endpoints)[E],
                                   bool zero_length) {
  std::vector<std::pair<Coord, Coord>> intervals;
  for (std::size_t i = 0; i < E; ++i) {
    for (std::size_t j = zero_length ? i : i + 1; j < E; ++j) {
      intervals.emplace_back(endpoints[i], endpoints[j]);
    }
  }
  std::vector<LayerBox> boxes;
  for (const Layer layer : layers) {
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
  const SweepOrder order = sweep_order(boxes);
  const std::vector<Coord> cuts = band_cuts(boxes, bands);
  std::vector<SweepShard> shards(static_cast<std::size_t>(kNumLayers) * (cuts.size() - 1));
  std::vector<std::size_t> all(shards.size());
  std::iota(all.begin(), all.end(), 0);
  sweep_shards(boxes, order, rules, cuts, all, shards, /*threads=*/1);
  std::vector<const SweepShard*> views;
  for (const SweepShard& shard : shards) views.push_back(&shard);
  add_width_and_anchor(system, boxes, rules);
  emit_pair_constraints(system, boxes, order, rules, views);
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

// The constraint stream of `boxes` (variables already assigned) after
// `transform` is applied to every box.
template <class Transform>
ConstraintSystem transformed_stream(const ConstraintSystem& variables,
                                    std::vector<CompactionBox> boxes, Transform transform) {
  for (CompactionBox& cb : boxes) cb.geometry.box = transform(cb.geometry.box);
  ConstraintSystem system = variables;
  generate_constraints(system, boxes, CompactionRules::mosis());
  return system;
}

Box mirrored_in_y(const Box& box) { return Box(box.lo.x, -box.hi.y, box.hi.x, -box.lo.y); }

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
  const std::vector<LayerBox> singles = single_boxes(kLayers, kEndpoints, false);
  Check checks[] = {{"(a) sweep == reference", 0, ""},
                    {"(b) 2 bands == 1 band", 0, ""},
                    {"(c) translated by (7, -5) == original", 0, ""},
                    {"(d) worklist solvers == pass-based", 0, ""},
                    {"(e) mirrored in y == original", 0, ""}};
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
        const ConstraintSystem translated = transformed_stream(
            variables, boxes, [](const Box& box) { return box.translated({7, -5}); });
        const ConstraintSystem mirrored = transformed_stream(variables, boxes, mirrored_in_y);

        const bool ok[] = {same_stream(sweep, reference), same_stream(banded, sweep),
                           same_stream(translated, sweep), solvers_agree(sweep),
                           same_stream(mirrored, sweep)};
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

TEST(SmallScope, EveryThreeBoxSameLayerLayoutAgreesWithTheOracle) {
  const CompactionRules rules = CompactionRules::mosis();
  Check checks[] = {{"(a) sweep == reference", 0, ""}, {"(e) mirrored in y == original", 0, ""}};
  std::size_t layouts = 0;
  for (const Layer layer : kNetLayers) {
    const Layer layers[] = {layer};
    const std::vector<LayerBox> singles = single_boxes(layers, kNetEndpoints, true);
    for (std::size_t i = 0; i < singles.size(); ++i) {
      for (std::size_t j = i; j < singles.size(); ++j) {
        for (std::size_t k = j; k < singles.size(); ++k) {
          ++layouts;
          std::vector<CompactionBox> boxes(3);
          boxes[0].geometry = singles[i];
          boxes[1].geometry = singles[j];
          boxes[2].geometry = singles[k];
          ConstraintSystem variables;
          add_box_variables(variables, boxes);

          ConstraintSystem sweep = variables;
          generate_constraints(sweep, boxes, rules);
          ConstraintSystem reference = variables;
          oracle::generate_constraints_reference(reference, boxes, rules);
          const ConstraintSystem mirrored = transformed_stream(variables, boxes, mirrored_in_y);

          const bool ok[] = {same_stream(sweep, reference), same_stream(mirrored, sweep)};
          for (std::size_t c = 0; c < std::size(checks); ++c) {
            if (!ok[c] && checks[c].failures++ == 0) checks[c].first = describe(boxes);
          }
        }
      }
    }
  }
  // 100 boxes per layer, so C(102, 3) = 171,700 multisets per layer.
  EXPECT_EQ(layouts, 3 * 171700u);
  for (const Check& check : checks) {
    EXPECT_EQ(check.failures, 0u) << check.name << " fails; first counterexample: "
                                  << check.first;
  }
}

}  // namespace
}  // namespace rsg::compact
