// Tests for the EXCL-style extractor: devices from poly-over-diffusion,
// nets across cuts, and the architectural cross-check on generated layouts
// (the Ch. 5 extraction loop).
#include "extract/extractor.hpp"

#include <gtest/gtest.h>

#include "compact/layer_expand.hpp"
#include "io/param_file.hpp"
#include "layout/flatten.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"

namespace rsg::extract {
namespace {

TEST(Extractor, SingleTransistor) {
  const std::vector<LayerBox> boxes = {
      {Layer::kDiffusion, Box(0, 0, 20, 8)},
      {Layer::kPoly, Box(8, -4, 12, 12)},
  };
  const Netlist netlist = extract(boxes);
  ASSERT_EQ(netlist.device_count(), 1u);
  EXPECT_EQ(netlist.devices[0].channel, Box(8, 0, 12, 8));
  // Poly and diffusion are separate nets (a gate is not a contact).
  EXPECT_EQ(netlist.num_nets, 2u);
  EXPECT_NE(netlist.box_net[0], netlist.box_net[1]);
}

TEST(Extractor, FragmentedGateIsOneDevice) {
  // One poly strip over two abutting diffusion fragments: one channel.
  const std::vector<LayerBox> boxes = {
      {Layer::kDiffusion, Box(0, 0, 10, 8)},
      {Layer::kDiffusion, Box(10, 0, 20, 8)},
      {Layer::kPoly, Box(8, -4, 12, 12)},
  };
  const Netlist netlist = extract(boxes);
  EXPECT_EQ(netlist.device_count(), 1u);
  EXPECT_EQ(netlist.num_nets, 2u);  // joined diffusion + poly
}

TEST(Extractor, TwoGatesOnOneDiffusionAreTwoDevices) {
  const std::vector<LayerBox> boxes = {
      {Layer::kDiffusion, Box(0, 0, 30, 8)},
      {Layer::kPoly, Box(8, -4, 12, 12)},
      {Layer::kPoly, Box(20, -4, 24, 12)},
  };
  const Netlist netlist = extract(boxes);
  EXPECT_EQ(netlist.device_count(), 2u);
  EXPECT_EQ(netlist.num_nets, 3u);
}

TEST(Extractor, CutConnectsMetalToPoly) {
  const std::vector<LayerBox> boxes = {
      {Layer::kMetal1, Box(0, 0, 20, 4)},
      {Layer::kPoly, Box(0, 0, 4, 20)},
      {Layer::kContactCut, Box(1, 1, 3, 3)},
  };
  const Netlist netlist = extract(boxes);
  EXPECT_EQ(netlist.num_nets, 1u);
  EXPECT_EQ(netlist.box_net[0], netlist.box_net[1]);
}

TEST(Extractor, WithoutCutLayersStaySeparate) {
  const std::vector<LayerBox> boxes = {
      {Layer::kMetal1, Box(0, 0, 20, 4)},
      {Layer::kPoly, Box(0, 0, 4, 20)},
  };
  const Netlist netlist = extract(boxes);
  EXPECT_EQ(netlist.num_nets, 2u);
}

TEST(Extractor, ExpandedContactConnects) {
  // Symbolic contact -> expand -> extract: the full §6.4.3 pipeline.
  const std::vector<LayerBox> boxes = compact::expand_contacts({
      {Layer::kContact, Box(0, 0, 8, 8)},
      {Layer::kMetal1, Box(8, 2, 30, 6)},   // abuts the contact's metal
      {Layer::kPoly, Box(-20, 2, 0, 6)},    // abuts the contact's poly
  });
  const Netlist netlist = extract(boxes);
  EXPECT_EQ(netlist.num_nets, 1u);
}

TEST(Extractor, MultiplierDeviceCountMatchesArchitecture) {
  // Generate the 6x6 multiplier and extract it. Each core cell contributes
  // two transistors (two poly input lines over one diffusion area); each
  // register cell one. Masks contribute none (implant/cut only).
  std::string params = read_text_file(designs_path("mult.par"));
  params += "\nasize = 6\n";
  GenerationSession session(CompiledDesign::compile(read_text_file(designs_path("mult.sample")),
                                                    read_text_file(designs_path("mult.rsg"))));
  const GeneratorResult result = session.generate(params);

  const Netlist netlist = extract(flatten_boxes(*result.top));
  std::size_t cores = 0;
  std::size_t registers = 0;
  for (const FlatInstance& fi : flatten_instances(*result.top)) {
    if (fi.cell->name() == "cell") ++cores;
    if (fi.cell->name() == "tr" || fi.cell->name() == "br" || fi.cell->name() == "rr") {
      ++registers;
    }
  }
  EXPECT_EQ(netlist.device_count(), 2 * cores + registers);
}

TEST(Extractor, EmptyInput) {
  const Netlist netlist = extract({});
  EXPECT_EQ(netlist.num_nets, 0u);
  EXPECT_EQ(netlist.device_count(), 0u);
}

}  // namespace
}  // namespace rsg::extract
