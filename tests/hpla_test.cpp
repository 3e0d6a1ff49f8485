// Tests for the HPLA relocation baseline and the E10 comparison: both
// generators must produce crosspoint-equivalent PLAs, with HPLA paying for
// a larger sample and relocated cell copies.
#include "hpla/hpla.hpp"

#include <gtest/gtest.h>

#include "pla/pla_builder.hpp"
#include "support/error.hpp"

namespace rsg::hpla {
namespace {

class HplaTest : public ::testing::Test {
 protected:
  HplaTest() {
    install_pla_library(cells_);
    sample_ = &build_sample_pla(cells_);
  }

  CellTable cells_;
  const Cell* sample_ = nullptr;
};

TEST_F(HplaTest, DescriptionCompilesExpectedPitches) {
  const Description d = compile_description(*sample_);
  EXPECT_EQ(d.and_pitch_x, pla::kCellW);
  EXPECT_EQ(d.and_pitch_y, -pla::kCellH);  // rows grow downward
  EXPECT_EQ(d.or_pitch_x, pla::kCellW);
  EXPECT_EQ(d.connect_offset_x, pla::kCellW);
  EXPECT_EQ(d.or_offset_x, pla::kConnectW);
  EXPECT_EQ(d.inbuf_offset_y, 0);
  EXPECT_EQ(d.outbuf_offset_y, -pla::kCellH);
  // The user had to draw the full 2x2x2 PLA: 20+ instances.
  EXPECT_GE(d.sample_instance_count, 20u);
}

TEST_F(HplaTest, CompileRejectsNonPlaSamples) {
  Cell& not_pla = cells_.create("junk");
  not_pla.add_instance(&cells_.get("and-cell"), kIdentityPlacement);
  EXPECT_THROW(compile_description(not_pla), Error);
}

TEST_F(HplaTest, GeneratedPlaRecoversItsPersonality) {
  const pla::TruthTable table = pla::TruthTable::parse(
      "101 10\n"
      "0-1 01\n"
      "-10 11\n");
  const Description d = compile_description(*sample_);
  GenerateStats stats;
  const Cell& out = generate(cells_, d, table, "hpla-out", &stats);
  EXPECT_GT(stats.instances_placed, 0u);
  EXPECT_GT(stats.relocated_cell_copies, 0u);  // per-context copies (§1.2.2)
  EXPECT_EQ(pla::recover_truth_table(out, 3, 2, 3), table);
}

TEST_F(HplaTest, RsgAndHplaOutputsAreCrosspointEquivalent) {
  // The headline comparison: feed both generators the same personality and
  // recover identical truth tables from both layouts.
  const pla::TruthTable table = pla::TruthTable::random(4, 3, 5, 2024);

  const Description d = compile_description(*sample_);
  const Cell& hpla_out = generate(cells_, d, table, "hpla-out");
  const pla::TruthTable from_hpla = pla::recover_truth_table(hpla_out, 4, 3, 5);

  const rsg::GeneratorResult rsg_out = pla::generate_pla(table);
  const pla::TruthTable from_rsg = pla::recover_truth_table(*rsg_out.top, 4, 3, 5);

  EXPECT_EQ(from_hpla, table);
  EXPECT_EQ(from_rsg, table);
  EXPECT_EQ(from_hpla, from_rsg);
}

TEST_F(HplaTest, RsgSampleIsSmallerThanHplaSample) {
  // §1.2.2: HPLA's sample "was actually larger than necessary and contained
  // redundant information". Compare what each tool requires the user to
  // draw: HPLA a full 2x2x2 PLA; the RSG a couple of interface examples.
  const Description d = compile_description(*sample_);

  const rsg::GeneratorResult rsg_out = pla::generate_pla(pla::TruthTable::random(2, 2, 2, 1));
  EXPECT_LT(rsg_out.sample_stats.assembly_instances + 0u, d.sample_instance_count + 1u);
  EXPECT_GT(d.sample_instance_count, 19u);
}

TEST_F(HplaTest, RelocationCopiesGrowWithEachGeneratedPla) {
  // Every generation run clones the library cells for its own use — the
  // duplication the RSG's shared cell definitions avoid.
  const pla::TruthTable table = pla::TruthTable::random(3, 2, 3, 5);
  const Description d = compile_description(*sample_);
  GenerateStats s1;
  GenerateStats s2;
  generate(cells_, d, table, "pla1", &s1);
  generate(cells_, d, table, "pla2", &s2);
  EXPECT_EQ(s1.relocated_cell_copies, 8u);
  EXPECT_EQ(s2.relocated_cell_copies, 8u);  // fresh copies again for pla2
}

}  // namespace
}  // namespace rsg::hpla
