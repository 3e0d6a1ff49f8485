// Tests for folded-column PLAs (§1.2.3): "The RSG can generate any PLA that
// HPLA can. It can also generate more complex PLAs such as PLAs with folded
// rows or columns."
#include <gtest/gtest.h>

#include <map>

#include "layout/flatten.hpp"
#include "pla/pla_builder.hpp"
#include "support/error.hpp"

namespace rsg::pla {
namespace {

// 4 outputs, 6 terms: outputs 1 and 3 live in terms 1-3 (upper), outputs 2
// and 4 in terms 4-6 (lower) — fold-compatible by construction.
TruthTable foldable_table() {
  return TruthTable::parse(
      "10-- 1010\n"
      "01-- 0010\n"
      "--10 1000\n"
      "--01 0101\n"
      "11-- 0001\n"
      "0011 0100\n");
}

TEST(FoldedPla, FoldabilityPredicate) {
  EXPECT_TRUE(is_foldable(foldable_table()));
  // An output with crosspoints in both halves is not foldable.
  const TruthTable bad = TruthTable::parse(
      "1- 10\n"
      "01 10\n");  // output 1 fires in terms 1 (upper) and 2 (lower)
  EXPECT_FALSE(is_foldable(bad));
}

TEST(FoldedPla, RejectsUnfoldablePersonality) {
  const TruthTable bad = TruthTable::parse(
      "1- 10\n"
      "01 10\n");
  EXPECT_THROW(generate_folded_pla(bad), Error);
}

TEST(FoldedPla, HalvesTheOrColumns) {
  const TruthTable table = foldable_table();

  const GeneratorResult folded = generate_folded_pla(table);
  const GeneratorResult plain = generate_pla(table);

  std::map<std::string, int> folded_counts;
  for (const FlatInstance& fi : flatten_instances(*folded.top)) {
    ++folded_counts[fi.cell->name()];
  }
  std::map<std::string, int> plain_counts;
  for (const FlatInstance& fi : flatten_instances(*plain.top)) {
    ++plain_counts[fi.cell->name()];
  }

  // 4 outputs fold into 2 physical columns: half the or-cells.
  EXPECT_EQ(plain_counts["or-cell"], 4 * 6);
  EXPECT_EQ(folded_counts["or-cell"], 2 * 6);
  // Same buffers (one per logical output), one track break per column.
  EXPECT_EQ(folded_counts["out-buf"], 4);
  EXPECT_EQ(folded_counts["or-brk"], 2);
  // Identical AND planes.
  EXPECT_EQ(folded_counts["and-cell"], plain_counts["and-cell"]);
  // Same number of OR crosspoints (the logic is unchanged).
  EXPECT_EQ(folded_counts["or-x"], plain_counts["or-x"]);
}

TEST(FoldedPla, FoldedLayoutIsNarrower) {
  const TruthTable table = foldable_table();
  const GeneratorResult folded = generate_folded_pla(table);
  const GeneratorResult plain = generate_pla(table);
  EXPECT_LT(folded.top->bounding_box().width(), plain.top->bounding_box().width());
}

TEST(FoldedPla, CrosspointsLandInTheRightSegments) {
  const TruthTable table = foldable_table();
  const GeneratorResult folded = generate_folded_pla(table);

  // Recover crosspoint rows per folded column from instance placements.
  // OR columns start after 4 AND columns + connect-ao.
  const Coord or_base = 4 * kCellW + kConnectW;
  for (const FlatInstance& fi : flatten_instances(*folded.top)) {
    if (fi.cell->name() != "or-x") continue;
    const Coord x = fi.placement.location.x;
    const Coord y = fi.placement.location.y;
    ASSERT_GE(x, or_base);
    const int column = static_cast<int>((x - or_base) / kCellW) + 1;  // 1-based pair index
    const int row = static_cast<int>(-y / kCellH) + 1;                // 1-based term
    const int split = table.num_terms() / 2;
    const int output = row <= split ? 2 * column - 1 : 2 * column;
    EXPECT_TRUE(table.terms()[static_cast<std::size_t>(row - 1)]
                    .outputs[static_cast<std::size_t>(output - 1)])
        << "crosspoint at column " << column << " row " << row;
  }
}

TEST(FoldedPla, BuffersSitOnBothSidesOfThePlane) {
  const GeneratorResult folded = generate_folded_pla(foldable_table());
  int above = 0;
  int below = 0;
  for (const FlatInstance& fi : flatten_instances(*folded.top)) {
    if (fi.cell->name() != "out-buf") continue;
    if (fi.placement.location.y >= 0) {
      ++above;
    } else {
      ++below;
    }
  }
  EXPECT_EQ(above, 2);
  EXPECT_EQ(below, 2);
}

}  // namespace
}  // namespace rsg::pla
