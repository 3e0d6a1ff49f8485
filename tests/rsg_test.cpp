// Generator-level tests, centered on E5: the decoupling of procedural and
// graphical information (Fig 1.1 / §3.2) — one design file retargeted by
// different sample layouts, one sample personalized by different parameter
// files — plus driver behaviours (top-cell choice, phase timing, errors).
#include "rsg/generator.hpp"

#include <gtest/gtest.h>

#include "lang/parser.hpp"
#include "support/error.hpp"

namespace rsg {
namespace {

constexpr const char* kRowDesign = R"(
(macro mrow (n)
  (locals foo)
  (do (i 1 (+ i 1) (> i n))
      (mk_instance b.i brick)
      (cond ((> i 1) (connect b.(- i 1) b.i 1)))))
(assign r (mrow n))
(mk_cell "row" (subcell r b.1))
)";

// Two implementations of the same brick: a loose one and a dense one with a
// different orientation discipline.
constexpr const char* kLooseSample = R"(
cell brick
  box metal1 0 0 20 8
end
assembly
  inst a brick 0 0 N
  inst b brick 30 0 N
  label 1 from a to b
end
)";

constexpr const char* kDenseMirroredSample = R"(
cell brick
  box metal1 0 0 20 8
end
assembly
  inst a brick 0 0 N
  inst b brick 40 0 MN
  label 1 from a to b
end
)";

TEST(Generator, SameDesignDifferentSamplesGiveDifferentImplementations) {
  // §3.2: "The procedural information in the design file ... remains
  // constant over different implementations of the design as given by the
  // sample layout."
  Generator loose;
  const GeneratorResult a = loose.run(kLooseSample, kRowDesign, "n = 4");
  Generator dense;
  const GeneratorResult b = dense.run(kDenseMirroredSample, kRowDesign, "n = 4");

  ASSERT_EQ(a.top->instances().size(), 4u);
  ASSERT_EQ(b.top->instances().size(), 4u);
  EXPECT_EQ(a.top->instances()[1].placement.location, (Point{30, 0}));
  EXPECT_EQ(b.top->instances()[1].placement.location, (Point{40, 0}));
  EXPECT_EQ(b.top->instances()[1].placement.orientation, Orientation::kMirrorNorth);
  // Mirrored chain: MN ∘ MN = N — the third brick is upright again.
  EXPECT_EQ(b.top->instances()[2].placement.orientation, Orientation::kNorth);
}

TEST(Generator, SameSampleDifferentParametersPersonalize) {
  Generator g4;
  Generator g9;
  const GeneratorResult a = g4.run(kLooseSample, kRowDesign, "n = 4");
  const GeneratorResult b = g9.run(kLooseSample, kRowDesign, "n = 9");
  EXPECT_EQ(a.top->instances().size(), 4u);
  EXPECT_EQ(b.top->instances().size(), 9u);
}

TEST(Generator, TopCellSelection) {
  const char* design = R"(
(mk_instance x brick)
(mk_cell "first" x)
(mk_instance y brick)
(mk_cell "second" y)
)";
  // Default: the last created cell.
  Generator g1;
  EXPECT_EQ(g1.run(kLooseSample, design, "n = 1").top->name(), "second");
  // The .top_cell directive wins.
  Generator g2;
  EXPECT_EQ(g2.run(kLooseSample, design, ".top_cell:first\nn = 1").top->name(), "first");
  // The explicit argument beats both.
  Generator g3;
  EXPECT_EQ(g3.run(kLooseSample, design, ".top_cell:first\nn = 1", "second").top->name(),
            "second");
}

TEST(Generator, NoCellsAnywhereFails) {
  Generator generator;
  EXPECT_THROW(generator.run("", "(+ 1 2)", ""), LayoutError);
}

TEST(Generator, DesignWithoutMkCellFallsBackToSampleCell) {
  // A design file that computes but never builds still has the sample's
  // cells to output; the driver picks the most recent one.
  Generator generator;
  const GeneratorResult result = generator.run(kLooseSample, "(+ 1 2)", "");
  EXPECT_EQ(result.top->name(), "brick");
}

TEST(Generator, PhaseTimesAreRecorded) {
  Generator generator;
  const GeneratorResult result = generator.run(kLooseSample, kRowDesign, "n = 32");
  EXPECT_GT(result.times.total().count(), 0.0);
  EXPECT_GE(result.times.read_sample.count(), 0.0);
  EXPECT_GT(result.times.execute_design.count(), 0.0);
  EXPECT_EQ(result.times.compact.count(), 0.0);  // no compaction requested
  EXPECT_GT(result.times.write_output.count(), 0.0);
}

TEST(Generator, CompactionIsItsOwnPhase) {
  // Flatten and the x/y schedule are timed as `compact`, so write_output
  // is the CIF render alone.
  Generator generator;
  const GeneratorResult result = generator.run(kLooseSample, kRowDesign, "n = 32\n.compact:xy\n");
  ASSERT_TRUE(result.compacted);
  EXPECT_GT(result.times.compact.count(), 0.0);
  EXPECT_GT(result.times.execute_design.count(), 0.0);
  EXPECT_GT(result.times.write_output.count(), 0.0);
}

TEST(Generator, StatsArePlumbedThrough) {
  Generator generator;
  const GeneratorResult result = generator.run(kLooseSample, kRowDesign, "n = 8");
  EXPECT_EQ(result.sample_stats.cells, 1u);
  EXPECT_EQ(result.sample_stats.interfaces_declared, 1u);
  EXPECT_GT(result.interp_stats.procedure_calls, 0u);
  EXPECT_GT(result.interface_lookups, 0u);
  EXPECT_NE(result.output.find("9 row;"), std::string::npos);
}

TEST(Generator, LanguageErrorsCarryDesignFileLocations) {
  Generator generator;
  try {
    generator.run(kLooseSample, "(mk_instance x brick)\n(connect x)", "");
    FAIL() << "expected LangError";
  } catch (const LangError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Generator, GeneratedCellsAreReusableAcrossRuns) {
  // One Generator accumulates state: a second design file can use cells the
  // first one built — the "delayed binding ... to any desired time" of the
  // macro abstraction story.
  Generator generator;
  generator.run(kLooseSample, kRowDesign, "n = 4");
  const char* second = R"(
(mk_instance a row)
(mk_instance b row)
(connect a b 7)
(mk_cell "tworows" a)
)";
  // Declare a row/row interface first (rows were never in the sample).
  generator.interfaces().declare("row", "row", 7, Interface{{0, 20}, Orientation::kNorth});
  lang::Interpreter interp(generator.cells(), generator.interfaces(), generator.graph());
  interp.run(lang::parse_program(second));
  EXPECT_TRUE(generator.cells().contains("tworows"));
  EXPECT_EQ(generator.cells().get("tworows").flattened_instance_count(), 2u + 8u);
}

}  // namespace
}  // namespace rsg
