// End-to-end tests for the Ch. 5 evaluation: the Appendix B/C design runs
// through the full RSG pipeline, and the generated layout's mask placements
// are cross-checked against the architectural predicates of src/arch (E6,
// E19).
#include <gtest/gtest.h>

#include <map>

#include "arch/baugh_wooley.hpp"
#include "arch/retiming.hpp"
#include "io/param_file.hpp"
#include "layout/flatten.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"
#include "support/error.hpp"

namespace rsg {
namespace {

std::string mult_params(int size) {
  std::string params = read_text_file(designs_path("mult.par"));
  params += "\nasize = " + std::to_string(size) + "\n";
  return params;
}

// A session over a fresh compile of the Appendix B/C sample and design.
GenerationSession mult_session() {
  return GenerationSession(CompiledDesign::compile(read_text_file(designs_path("mult.sample")),
                                                   read_text_file(designs_path("mult.rsg"))));
}

GeneratorResult generate_multiplier(int size) { return mult_session().generate(mult_params(size)); }

TEST(Multiplier, AppendixBDesignRunsEndToEnd) {
  GenerationSession session = mult_session();
  const GeneratorResult result = session.generate(mult_params(6));
  ASSERT_NE(result.top, nullptr);
  EXPECT_EQ(result.top->name(), "thewholething");
  EXPECT_FALSE(result.output.empty());
  // The hierarchy: inner array + three register files under the top cell.
  EXPECT_EQ(result.top->instances().size(), 4u);
  EXPECT_TRUE(session.cells().contains("array"));
  EXPECT_TRUE(session.cells().contains("topregs"));
  EXPECT_TRUE(session.cells().contains("bottomregs"));
  EXPECT_TRUE(session.cells().contains("rightregs"));
}

TEST(Multiplier, CoreCellCountMatchesArraySize) {
  const GeneratorResult result = generate_multiplier(6);
  std::map<std::string, int> counts;
  for (const FlatInstance& fi : flatten_instances(*result.top)) {
    ++counts[fi.cell->name()];
  }
  EXPECT_EQ(counts["cell"], 36);            // 6x6 inner array
  EXPECT_EQ(counts["t1"] + counts["t2"], 36);  // one type mask per cell
  // Type II on the last column (5, excluding the shared corner cell which
  // is type I) and the last row (5): Figure 5.1.
  EXPECT_EQ(counts["t2"], 10);
  EXPECT_EQ(counts["clk1"] + counts["clk2"], 36);
  EXPECT_EQ(counts["tr"], 1 + 2 + 3 + 4 + 5 + 6);  // triangular input skew
  EXPECT_EQ(counts["br"], 6 + 5 + 4 + 3 + 2 + 1);
}

TEST(Multiplier, MaskPlacementMatchesArchitecturalPredicates) {
  // The load-bearing cross-check: for every type mask in the generated
  // layout, the mask kind at that grid position must equal what the
  // Baugh–Wooley predicate demands. Layout column xloc (1-based, from the
  // row start) maps to architecture x = xsize - xloc; row yloc to y =
  // yloc - 1.
  const int size = 6;
  const GeneratorResult result = generate_multiplier(size);

  // Find all core cells and index them by grid position. The array builds
  // rows downward and columns rightward from the root; normalize by the
  // minimum observed coordinates.
  std::vector<Point> cores;
  std::vector<std::pair<Point, bool>> type_masks;  // position -> is_type2
  std::vector<std::pair<Point, bool>> clock_masks;  // position -> is_phi1
  for (const FlatInstance& fi : flatten_instances(*result.top)) {
    const std::string& name = fi.cell->name();
    if (name == "cell") cores.push_back(fi.placement.location);
    if (name == "t1") type_masks.emplace_back(fi.placement.location, false);
    if (name == "t2") type_masks.emplace_back(fi.placement.location, true);
    if (name == "clk1") clock_masks.emplace_back(fi.placement.location, true);
    if (name == "clk2") clock_masks.emplace_back(fi.placement.location, false);
  }
  ASSERT_EQ(cores.size(), static_cast<std::size_t>(size * size));

  Point min{cores.front()};
  Point max{cores.front()};
  for (const Point p : cores) {
    min = {std::min(min.x, p.x), std::min(min.y, p.y)};
    max = {std::max(max.x, p.x), std::max(max.y, p.y)};
  }
  const Coord pitch_x = (max.x - min.x) / (size - 1);
  const Coord pitch_y = (max.y - min.y) / (size - 1);
  ASSERT_GT(pitch_x, 0);
  ASSERT_GT(pitch_y, 0);

  const arch::MultiplierSpec spec{size, size};
  ASSERT_EQ(type_masks.size(), static_cast<std::size_t>(size * size));
  for (const auto& [at, is_type2] : type_masks) {
    const int xloc = static_cast<int>((at.x - min.x) / pitch_x) + 1;  // 1-based column
    const int yloc = size - static_cast<int>((at.y - min.y) / pitch_y);  // rows grow down
    ASSERT_GE(xloc, 1);
    ASSERT_LE(xloc, size);
    // The design file places type II on the last column / last row except
    // their shared corner; map to the architecture frame.
    const arch::CellKind expected = arch::carry_save_cell_kind(spec, size - xloc, yloc - 1);
    EXPECT_EQ(is_type2, expected == arch::CellKind::kTypeII)
        << "mask at column " << xloc << " row " << yloc;
  }
  for (const auto& [at, is_phi1] : clock_masks) {
    const int xloc = static_cast<int>((at.x - min.x) / pitch_x) + 1;
    // mcell: even xloc -> clock1.
    EXPECT_EQ(is_phi1, xloc % 2 == 0) << "clock mask at column " << xloc;
  }
}

TEST(Multiplier, GenerationIsDeterministic) {
  const GeneratorResult r1 = generate_multiplier(4);
  const GeneratorResult r2 = generate_multiplier(4);
  EXPECT_EQ(r1.output, r2.output);
}

TEST(Multiplier, SizesScaleQuadratically) {
  const GeneratorResult r4 = generate_multiplier(4);
  const GeneratorResult r8 = generate_multiplier(8);
  const std::size_t boxes4 = r4.top->flattened_box_count();
  const std::size_t boxes8 = r8.top->flattened_box_count();
  // 4x -> quadrupled core content (registers grow sub-quadratically).
  EXPECT_GT(boxes8, 3 * boxes4);
  EXPECT_LT(boxes8, 5 * boxes4);
}

TEST(Multiplier, SampleIsRadicallySmallerThanLayout) {
  // E7 (Fig 5.5 vs 5.6): the information reduction of design-by-example.
  const GeneratorResult result = generate_multiplier(16);
  const std::size_t layout_instances = result.top->flattened_instance_count();
  EXPECT_EQ(result.sample_stats.assembly_instances, 26u);
  EXPECT_GT(layout_instances, 40u * result.sample_stats.assembly_instances);
}

TEST(Multiplier, RegisterStacksArePlacedOutsideTheArray) {
  GenerationSession session = mult_session();
  const GeneratorResult result = session.generate(mult_params(4));
  const Cell& array = session.cells().get("array");
  // Top registers strictly above the array rows, bottom strictly below,
  // right rows strictly to the right — derive the array bbox from an
  // array-only flatten and compare register positions in the top cell.
  Box array_bbox;
  bool first = true;
  std::optional<Placement> array_placement;
  for (const Instance& inst : result.top->instances()) {
    if (inst.cell == &array) array_placement = inst.placement;
  }
  ASSERT_TRUE(array_placement.has_value());
  array_bbox = array_placement->apply(array.bounding_box());
  (void)first;

  for (const FlatInstance& fi : flatten_instances(*result.top)) {
    if (fi.cell->name() == "tr") {
      EXPECT_GE(fi.placement.location.y, array_bbox.hi.y) << "top register inside array";
    } else if (fi.cell->name() == "rr") {
      EXPECT_GE(fi.placement.location.x, array_bbox.hi.x) << "right register inside array";
    }
  }
}


TEST(Multiplier, PipeliningDegreeShapesTheRegisterStacks) {
  // The design file's skewdepth = ceil(i/beta): beta=1 gives the triangular
  // bit-systolic stacks (Fig 5.2a), beta=2 halves them (Fig 5.2b) — and
  // matches the retiming engine's input_skew table.
  std::string params = mult_params(6);
  params += "\nbeta = 2\n";
  const GeneratorResult result = mult_session().generate(params);
  std::map<std::string, int> counts;
  for (const FlatInstance& fi : flatten_instances(*result.top)) ++counts[fi.cell->name()];
  // ceil(i/2) for i=1..6: 1+1+2+2+3+3 = 12 top registers (vs 21 at beta=1).
  EXPECT_EQ(counts["tr"], 12);
  EXPECT_EQ(counts["br"], 12);

  // Cross-check against the retiming engine: total skew registers per
  // operand equal the sum of its skew table (+1 per column: a stack of
  // depth ceil(i/beta) holds the stage-0 register too).
  const auto config = arch::compute_register_configuration({6, 6}, 2);
  int skew_sum = 0;
  for (const int d : config.input_skew_b) skew_sum += d;
  EXPECT_EQ(counts["tr"], skew_sum + 6);
}

TEST(Multiplier, MissingInterfaceProducesActionableError) {
  std::string params = mult_params(4);
  params += "\nhinum = 9\n";  // no such interface in the sample
  try {
    mult_session().generate(params);
    FAIL() << "expected LayoutError";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("#9"), std::string::npos);
  }
}

}  // namespace
}  // namespace rsg
