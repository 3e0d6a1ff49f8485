// Tests for the RAM generator (designs/ram.*): structure, DRC cleanliness,
// net/device extraction, and scaling — the §1.1 RAM built on the same
// engine as the PLA and the multiplier.
#include <gtest/gtest.h>

#include <map>

#include "extract/extractor.hpp"
#include "io/param_file.hpp"
#include "layout/design_rules.hpp"
#include "layout/flatten.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"

namespace rsg {
namespace {

GeneratorResult generate_ram(int words, int bits) {
  std::string params = read_text_file(designs_path("ram.par"));
  params += "\nwords = " + std::to_string(words) + "\nbits = " + std::to_string(bits) + "\n";
  GenerationSession session(CompiledDesign::compile(read_text_file(designs_path("ram.sample")),
                                                    read_text_file(designs_path("ram.rsg"))));
  return session.generate(params);
}

TEST(Ram, StructureMatchesParameters) {
  const GeneratorResult result = generate_ram(8, 16);
  ASSERT_EQ(result.top->name(), "ram");
  std::map<std::string, int> counts;
  for (const FlatInstance& fi : flatten_instances(*result.top)) ++counts[fi.cell->name()];
  EXPECT_EQ(counts["bit"], 8 * 16);
  EXPECT_EQ(counts["wld"], 8);
  EXPECT_EQ(counts["pre"], 16);
  EXPECT_EQ(counts["sense"], 16);
}

TEST(Ram, PeripheryLandsOnTheRightSides) {
  const GeneratorResult result = generate_ram(4, 4);
  Box core;
  bool first = true;
  for (const FlatInstance& fi : flatten_instances(*result.top)) {
    if (fi.cell->name() != "bit") continue;
    const Box b = fi.placement.apply(fi.cell->bounding_box());
    core = first ? b : core.bounding_union(b);
    first = false;
  }
  for (const FlatInstance& fi : flatten_instances(*result.top)) {
    const Box b = fi.placement.apply(fi.cell->bounding_box());
    if (fi.cell->name() == "pre") {
      EXPECT_GE(b.lo.y, core.hi.y) << "pre below array top";
    }
    if (fi.cell->name() == "sense") {
      EXPECT_LE(b.hi.y, core.lo.y) << "sense above array bottom";
    }
    if (fi.cell->name() == "wld") {
      EXPECT_LE(b.hi.x, core.lo.x) << "driver inside array";
    }
  }
}

TEST(Ram, GeneratedLayoutIsDesignRuleClean) {
  const GeneratorResult result = generate_ram(4, 6);
  const auto violations =
      check_design_rules(flatten_boxes(*result.top), DesignRules::mosis_lambda());
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, first: "
                                  << (violations.empty() ? "" : violations.front().rule);
}

TEST(Ram, ExtractionSeesRowsColumnsAndCells) {
  // One storage device per bit cell plus one per wordline driver; one
  // bitline net per column (bit metal + pre metal + sense metal fused).
  const int words = 4;
  const int bits = 6;
  const GeneratorResult result = generate_ram(words, bits);
  const extract::Netlist netlist = extract::extract(flatten_boxes(*result.top));
  EXPECT_EQ(netlist.device_count(), static_cast<std::size_t>(words * bits + words));

  // Count distinct nets among bitline metal boxes: exactly `bits`.
  const auto boxes = flatten_boxes(*result.top);
  std::map<std::size_t, int> metal_nets;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    if (boxes[i].layer == Layer::kMetal1) ++metal_nets[netlist.box_net[i]];
  }
  EXPECT_EQ(metal_nets.size(), static_cast<std::size_t>(bits));
  // And wordline poly nets: one per word (driver stub + row wordlines).
  std::map<std::size_t, int> poly_nets;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    if (boxes[i].layer == Layer::kPoly) ++poly_nets[netlist.box_net[i]];
  }
  EXPECT_EQ(poly_nets.size(), static_cast<std::size_t>(words));
}

TEST(Ram, ScalesToKilobitArrays) {
  const GeneratorResult result = generate_ram(32, 32);
  EXPECT_EQ(result.top->flattened_instance_count(), 32u * 32u + 32u + 32u + 32u);
  // 11 units of driver content left of the array + 32 16-wide columns.
  EXPECT_EQ(result.top->bounding_box().width(), 11 + 32 * 16);
}

}  // namespace
}  // namespace rsg
