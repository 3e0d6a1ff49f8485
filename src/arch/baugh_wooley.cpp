#include "arch/baugh_wooley.hpp"

#include "support/error.hpp"

namespace rsg::arch {

CellKind carry_save_cell_kind(const MultiplierSpec& spec, int x, int y) {
  if (x < 0 || x >= spec.m || y < 0 || y >= spec.n) {
    throw Error("carry_save_cell_kind: position out of range");
  }
  // Figure 5.1: type II on the left edge (x = 0, the MSB multiplicand
  // column) and the bottom edge (y = n-1, the MSB multiplier row), except
  // the lower-left corner — which is the positive a_{m-1}*b_{n-1} term.
  const bool left = (x == 0);
  const bool bottom = (y == spec.n - 1);
  if (left && bottom) return CellKind::kTypeI;
  return (left || bottom) ? CellKind::kTypeII : CellKind::kTypeI;
}

std::vector<int> to_bits(std::int64_t value, int width) {
  std::vector<int> bits(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) bits[static_cast<std::size_t>(i)] = (value >> i) & 1;
  return bits;
}

std::int64_t from_bits(const std::vector<int>& bits) {
  if (bits.empty() || bits.size() > 64) throw Error("from_bits: unsupported width");
  const int width = static_cast<int>(bits.size());
  // Assemble unsigned, sign-extend via wraparound: exact for width <= 64.
  std::uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    if (bits[static_cast<std::size_t>(i)]) value |= (std::uint64_t{1} << i);
  }
  if (bits.back() && width < 64) value -= (std::uint64_t{1} << width);
  return static_cast<std::int64_t>(value);
}

namespace {

// The partial product entering cell (column = multiplicand bit j, row =
// multiplier bit i): complemented exactly where the array holds a type II
// cell. Layout column x maps to bit j = m-1-x (the MSB column is the array's
// left edge), which is what makes the layout and algebra predicates one.
int bit_product(const MultiplierSpec& spec, const std::vector<int>& a_bits,
                const std::vector<int>& b_bits, int j, int i) {
  const int p = a_bits[static_cast<std::size_t>(j)] & b_bits[static_cast<std::size_t>(i)];
  const int x = spec.m - 1 - j;
  return carry_save_cell_kind(spec, x, i) == CellKind::kTypeII ? (p ^ 1) : p;
}

}  // namespace

void preload_corrections(const MultiplierSpec& spec, std::vector<int>& sum,
                         std::vector<int>& carry) {
  // Baugh–Wooley correction ones: +2^{m-1} +2^{n-1} +2^{m+n-1}, assigned to
  // otherwise-unused edge inputs (the Ch. 5 "input assignment"
  // personalization). The sum rail at position n-1 is untouched until the
  // first row covering that column consumes it, so it is always a safe
  // carrier; only when m == n do the two low corrections share a position,
  // in which case the second rides row 0's carry rail (consumed at once).
  const int width = spec.m + spec.n;
  sum[static_cast<std::size_t>(spec.m - 1)] ^= 1;
  if (spec.m == spec.n) {
    carry[static_cast<std::size_t>(spec.n - 1)] ^= 1;
  } else {
    sum[static_cast<std::size_t>(spec.n - 1)] ^= 1;
  }
  sum[static_cast<std::size_t>(width - 1)] ^= 1;
}

void apply_carry_save_row(const MultiplierSpec& spec, const std::vector<int>& a_bits,
                          const std::vector<int>& b_bits, int i, std::vector<int>& sum,
                          std::vector<int>& carry) {
  const int width = spec.m + spec.n;
  std::vector<int> next_carry(static_cast<std::size_t>(width), 0);
  for (int j = 0; j < spec.m; ++j) {
    const int k = i + j;
    int c = 0;
    sum[static_cast<std::size_t>(k)] =
        full_adder(sum[static_cast<std::size_t>(k)], carry[static_cast<std::size_t>(k)],
                   bit_product(spec, a_bits, b_bits, j, i), c);
    if (k + 1 < width) next_carry[static_cast<std::size_t>(k + 1)] |= c;
  }
  // Columns untouched by this row keep their saved carries. (No collision
  // with the freshly produced carries: after row r all carries sit at
  // positions <= r + m, and row r+1 consumes exactly positions
  // r+1 .. r+m.)
  for (int k = 0; k < width; ++k) {
    if (k < i || k > i + spec.m - 1) {
      next_carry[static_cast<std::size_t>(k)] |= carry[static_cast<std::size_t>(k)];
    }
  }
  carry = std::move(next_carry);
}

void apply_cpa_segment(const std::vector<int>& sum, const std::vector<int>& carry,
                       std::vector<int>& result, int& ripple, int from, int to) {
  for (int k = from; k < to; ++k) {
    result[static_cast<std::size_t>(k)] = full_adder(
        sum[static_cast<std::size_t>(k)], carry[static_cast<std::size_t>(k)], ripple, ripple);
  }
  // A final out-carry falls off the m+n-bit product (mod 2^{m+n}).
}

std::vector<int> evaluate_combinational(const MultiplierSpec& spec,
                                        const std::vector<int>& a_bits,
                                        const std::vector<int>& b_bits, int* depth) {
  if (static_cast<int>(a_bits.size()) != spec.m || static_cast<int>(b_bits.size()) != spec.n) {
    throw Error("evaluate_combinational: operand widths do not match the spec");
  }
  const int width = spec.m + spec.n;

  std::vector<int> sum(static_cast<std::size_t>(width), 0);
  std::vector<int> carry(static_cast<std::size_t>(width), 0);
  preload_corrections(spec, sum, carry);

  for (int i = 0; i < spec.n; ++i) apply_carry_save_row(spec, a_bits, b_bits, i, sum, carry);

  std::vector<int> result(static_cast<std::size_t>(width), 0);
  int ripple = 0;
  apply_cpa_segment(sum, carry, result, ripple, 0, width);

  if (depth != nullptr) *depth = spec.n + width;  // n CSA rows + full ripple
  return result;
}

}  // namespace rsg::arch
