// Tests for the CIF reader: round trips through the writer, transform
// reconstruction, scale handling, error paths, and CIF-as-sample-layout
// (the §4.5 format-independence claim).
#include "io/cif_reader.hpp"

#include <gtest/gtest.h>

#include "io/cif_writer.hpp"
#include "io/def_writer.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"
#include "support/error.hpp"

namespace rsg {
namespace {

class CifRoundTripTest : public ::testing::Test {
 protected:
  CifRoundTripTest() {
    Cell& leaf = cells_.create("leaf");
    leaf.add_box(Layer::kMetal1, Box(0, 0, 5, 3));  // odd sizes: exercise scale
    leaf.add_box(Layer::kPoly, Box(1, -2, 3, 7));
    leaf.add_label("pin", {1, 1});
    Cell& mid = cells_.create("mid");
    mid.add_instance(&leaf, Placement{{10, 0}, Orientation::kWest});
    mid.add_instance(&leaf, Placement{{-4, 9}, Orientation::kMirrorEast});
    Cell& top = cells_.create("top");
    top.add_box(Layer::kDiffusion, Box(-7, -7, 0, 0));
    top.add_instance(&mid, Placement{{100, 50}, Orientation::kSouth});
    top.add_instance(&leaf, Placement{{0, 0}, Orientation::kMirrorNorth});
  }
  CellTable cells_;
};

TEST_F(CifRoundTripTest, WriteReadPreservesFlatGeometry) {
  const std::string cif = cif_to_string(cells_.get("top"));
  CellTable read_back;
  const CifReadResult result = read_cif(cif, read_back);
  EXPECT_EQ(result.top, "top");
  EXPECT_EQ(result.cells_read, 3u);
  // The flat geometry must be identical box for box.
  EXPECT_EQ(def_to_string(read_back.get("top")), def_to_string(cells_.get("top")));
}

TEST_F(CifRoundTripTest, AllOrientationsSurviveTheRoundTrip) {
  CellTable cells;
  Cell& leaf = cells.create("leaf");
  leaf.add_box(Layer::kMetal1, Box(0, 0, 10, 3));
  leaf.add_box(Layer::kPoly, Box(2, 0, 4, 8));
  Cell& top = cells.create("top");
  for (int i = 0; i < 8; ++i) {
    top.add_instance(&leaf, Placement{{i * 40, 7}, Orientation::from_index(i)});
  }
  CellTable read_back;
  read_cif(cif_to_string(top), read_back);
  EXPECT_EQ(def_to_string(read_back.get("top")), def_to_string(top));
}

TEST(CifReader, HandWrittenCif) {
  const char* cif = R"(
( a hand-written fragment );
DS 1 2 1;
9 wire;
L CM1; B 4 2 2 1;
DF;
DS 2 1 1;
9 pairs;
C 1 T 0 0;
C 1 R 0 1 T 20 0;
C 1 MX T 40 0;
DF;
C 2 T 0 0;
E
)";
  CellTable cells;
  const CifReadResult result = read_cif(cif, cells);
  EXPECT_EQ(result.top, "pairs");
  EXPECT_EQ(result.boxes_read, 1u);
  EXPECT_EQ(result.calls_read, 4u);
  // DS 1 has scale 2/1: the 4x2 box at center (2,1) doubles to 8x4 @ (4,2).
  const Cell& wire = cells.get("wire");
  ASSERT_EQ(wire.boxes().size(), 1u);
  EXPECT_EQ(wire.boxes()[0].box, Box(0, 0, 8, 4));
  const Cell& pairs = cells.get("pairs");
  ASSERT_EQ(pairs.instances().size(), 3u);
  EXPECT_EQ(pairs.instances()[1].placement.orientation, Orientation::kWest);
  EXPECT_EQ(pairs.instances()[2].placement.orientation, Orientation::kMirrorNorth);
}

TEST(CifReader, ErrorPaths) {
  CellTable cells;
  EXPECT_THROW(read_cif("DS 1 1 1;\nB 2 2 1 1;", cells), Error);  // missing DF
  CellTable cells2;
  EXPECT_THROW(read_cif("DS 1;\nDS 2;", cells2), Error);  // nested DS
  CellTable cells3;
  EXPECT_THROW(read_cif("DS 1 1 1;\nC 99 T 0 0;\nDF;\nE", cells3), Error);  // fwd ref
  CellTable cells4;
  EXPECT_THROW(read_cif("DS 1 1 1;\nL CZ;\nDF;\nE", cells4), Error);  // bad layer
  CellTable cells5;
  EXPECT_THROW(read_cif("DS 1 1 1;\nL CM1;\nB 3 2 1 1 1 1;\nDF;\nE", cells5),
               Error);  // diagonal box direction
  CellTable cells6;
  EXPECT_THROW(read_cif("DS 1 1 3;\nL CM1;\nB 4 4 2 2;\nDF;\nE", cells6),
               Error);  // non-integral scale result
}

TEST(CifReader, CifSampleLayoutDrivesTheGenerator) {
  // The §4.5 claim: a different file format, the same pipeline. Express the
  // quickstart sample as CIF (assembly cell carries the 94 labels), compile
  // it, and run a design file against it.
  const char* cif_sample = R"(
DS 1 1 1;
9 brick;
L CM1; B 20 8 10 4;
DF;
DS 2 1 1;
9 assembly1;
C 1 T 0 0;
C 1 T 16 0;
94 1 18 4;
DF;
E
)";
  const auto compiled = CompiledDesign::compile(
      cif_sample,
      "(mk_instance a brick) (mk_instance b brick) (connect a b 1)"
      "(mk_cell \"row\" a)");
  const SampleLayoutStats& stats = compiled->sample_stats();
  EXPECT_EQ(stats.cells, 1u);
  EXPECT_EQ(stats.interfaces_declared, 1u);
  EXPECT_EQ(compiled->interfaces().get("brick", "brick", 1),
            (Interface{{16, 0}, Orientation::kNorth}));

  // Run the design file against the compiled tables.
  GenerationSession session(compiled);
  const Cell* cell = session.generate("").top;
  ASSERT_EQ(cell->name(), "row");
  EXPECT_EQ(cell->instances().size(), 2u);
  EXPECT_EQ(cell->instances()[1].placement.location, (Point{16, 0}));
}

}  // namespace
}  // namespace rsg
