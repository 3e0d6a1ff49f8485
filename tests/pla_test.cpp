// Tests for truth tables and the RSG PLA / decoder generators (E10/E11):
// the same sample layout must build both architectures, and the generated
// layout's crosspoint pattern must recover the input personality exactly.
#include "pla/pla_builder.hpp"

#include <gtest/gtest.h>

#include "layout/flatten.hpp"
#include "pla/truth_table.hpp"
#include "support/error.hpp"

namespace rsg::pla {
namespace {

TEST(TruthTable, ParseAndEvaluate) {
  const TruthTable table = TruthTable::parse(
      "; two-bit example\n"
      "10 10\n"
      "01 11\n"
      "-1 01\n");
  EXPECT_EQ(table.num_inputs(), 2);
  EXPECT_EQ(table.num_outputs(), 2);
  EXPECT_EQ(table.num_terms(), 3);
  EXPECT_EQ(table.evaluate({true, false}), (std::vector<bool>{true, false}));
  EXPECT_EQ(table.evaluate({false, true}), (std::vector<bool>{true, true}));
  EXPECT_EQ(table.evaluate({true, true}), (std::vector<bool>{false, true}));
  EXPECT_EQ(table.evaluate({false, false}), (std::vector<bool>{false, false}));
}

TEST(TruthTable, ParseErrors) {
  EXPECT_THROW(TruthTable::parse(""), Error);
  EXPECT_THROW(TruthTable::parse("10"), Error);
  EXPECT_THROW(TruthTable::parse("1x 10"), Error);
  EXPECT_THROW(TruthTable::parse("10 2"), Error);
}

TEST(TruthTable, DecoderPersonality) {
  const TruthTable dec = TruthTable::decoder(3);
  EXPECT_EQ(dec.num_inputs(), 3);
  EXPECT_EQ(dec.num_outputs(), 8);
  EXPECT_EQ(dec.num_terms(), 8);
  for (int code = 0; code < 8; ++code) {
    std::vector<bool> in;
    for (int i = 0; i < 3; ++i) in.push_back(((code >> i) & 1) != 0);
    const auto out = dec.evaluate(in);
    for (int line = 0; line < 8; ++line) {
      EXPECT_EQ(out[static_cast<std::size_t>(line)], line == code);
    }
  }
}

TEST(TruthTable, RandomIsDeterministic) {
  const TruthTable a = TruthTable::random(4, 3, 6, 42);
  const TruthTable b = TruthTable::random(4, 3, 6, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.num_terms(), 6);
}

TEST(PlaBuilder, GeneratesAndRecoversPersonality) {
  const TruthTable table = TruthTable::parse(
      "10-1 101\n"
      "01-0 110\n"
      "--11 011\n"
      "0--- 100\n");
  const rsg::GeneratorResult result = generate_pla(table);
  ASSERT_NE(result.top, nullptr);
  EXPECT_EQ(result.top->name(), "pla");

  const TruthTable recovered = recover_truth_table(*result.top, 4, 3, 4);
  EXPECT_EQ(recovered, table);
}

TEST(PlaBuilder, StructuralCounts) {
  const TruthTable table = TruthTable::random(5, 4, 7, 7);
  const rsg::GeneratorResult result = generate_pla(table);

  std::map<std::string, int> counts;
  for (const rsg::FlatInstance& fi : rsg::flatten_instances(*result.top)) {
    ++counts[fi.cell->name()];
  }
  EXPECT_EQ(counts["in-buf"], 5);
  EXPECT_EQ(counts["and-cell"], 5 * 7);
  EXPECT_EQ(counts["connect-ao"], 7);
  EXPECT_EQ(counts["or-cell"], 4 * 7);
  EXPECT_EQ(counts["out-buf"], 4);
  // Every non-don't-care input bit yields one AND crosspoint.
  int expected_and = 0;
  int expected_or = 0;
  for (const Term& term : table.terms()) {
    for (const InBit bit : term.inputs) expected_and += (bit != InBit::kDontCare);
    for (const bool bit : term.outputs) expected_or += bit;
  }
  EXPECT_EQ(counts["and-1"] + counts["and-0"], expected_and);
  EXPECT_EQ(counts["or-x"], expected_or);
}

TEST(PlaBuilder, FunctionalEquivalenceThroughRecovery) {
  // Generate, recover, and check the recovered logic behaves identically on
  // every input assignment (n is small enough to sweep exhaustively).
  const TruthTable table = TruthTable::random(4, 3, 6, 123);
  const rsg::GeneratorResult result = generate_pla(table);
  const TruthTable recovered = recover_truth_table(*result.top, 4, 3, 6);
  for (int v = 0; v < 16; ++v) {
    std::vector<bool> in;
    for (int i = 0; i < 4; ++i) in.push_back(((v >> i) & 1) != 0);
    EXPECT_EQ(recovered.evaluate(in), table.evaluate(in)) << "input " << v;
  }
}

TEST(Decoder, SameSampleLayoutBuildsADecoder) {
  // §1.2.2: requiring the sample to look like the finished product would
  // "reduce the scope within which any given sample layout may be used" —
  // here the PLA sample builds a 3-to-8 decoder.
  const rsg::GeneratorResult result = generate_decoder(3);
  ASSERT_NE(result.top, nullptr);
  EXPECT_EQ(result.top->name(), "decoder");

  std::map<std::string, int> counts;
  for (const rsg::FlatInstance& fi : rsg::flatten_instances(*result.top)) {
    ++counts[fi.cell->name()];
  }
  EXPECT_EQ(counts["in-buf"], 3);
  EXPECT_EQ(counts["and-cell"], 3 * 8);
  EXPECT_EQ(counts["connect-ao"], 8);   // row output buffers
  EXPECT_EQ(counts["or-cell"], 0);      // no OR plane in a decoder
  EXPECT_EQ(counts["and-1"] + counts["and-0"], 3 * 8);  // full minterms
}

TEST(Decoder, MintermPatternIsCorrect) {
  const rsg::GeneratorResult result = generate_decoder(3);
  // Recover the AND plane only: 3 inputs, 8 terms, 0 outputs.
  const TruthTable recovered = recover_truth_table(*result.top, 3, 0, 8);
  const TruthTable expected_src = TruthTable::decoder(3);
  ASSERT_EQ(recovered.num_terms(), 8);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(recovered.terms()[static_cast<std::size_t>(t)].inputs,
              expected_src.terms()[static_cast<std::size_t>(t)].inputs)
        << "minterm row " << t;
  }
}

TEST(PlaBuilder, EncodingTableConversion) {
  const TruthTable table = TruthTable::parse("1-0 01\n");
  const auto enc = to_encoding_table(table);
  EXPECT_EQ(enc.inputs, 3);
  EXPECT_EQ(enc.outputs, 2);
  ASSERT_EQ(enc.in.size(), 1u);
  EXPECT_EQ(enc.in[0], (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(enc.out[0], (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace rsg::pla
