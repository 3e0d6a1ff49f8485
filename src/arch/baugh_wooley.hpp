// Baugh–Wooley two's-complement array multipliers (Ch. 5, Figure 5.1).
//
// The multiplier is an m x n array of carry-save adder cells — type I adds
// the bit product a_j*b_i to its sum and carry inputs, type II adds the
// COMPLEMENT of the bit product — followed by a carry-propagate adder row of
// type I cells. Type II cells occur on the left and bottom edges of the
// carry-save array except the lower-left corner; the Baugh–Wooley correction
// constants enter as ones on otherwise unused edge inputs.
//
// This module is the architectural ground truth for the Ch. 5 evaluation:
// the personalization predicates here (cell kind, clock phase, carry mask)
// are exactly what the RSG design file's mcell macro computes, so the
// integration tests can cross-check the generated LAYOUT against the
// generated ARCHITECTURE, and the simulator (simulator.hpp) substitutes for
// the paper's EXCL+SPICE flow by verifying functional correctness.
#pragma once

#include <cstdint>
#include <vector>

namespace rsg::arch {

enum class CellKind : std::uint8_t {
  kTypeI,   // adds  a_j * b_i
  kTypeII,  // adds ~(a_j * b_i)
};

enum class ClockPhase : std::uint8_t { kPhi1, kPhi2 };

struct MultiplierSpec {
  int m = 6;  // multiplicand bits (columns)
  int n = 6;  // multiplier bits (rows)
};

// Personalization predicates, 0-based: column x in [0, m), row y in [0, n)
// of the carry-save array. Row n-1 is the bottom edge; column 0 the left.
//
// Figure 5.1: type II on the left and bottom edges except the lower-left
// corner cell.
CellKind carry_save_cell_kind(const MultiplierSpec& spec, int x, int y);

// Clock assignment alternates by column (the mcell macro: even columns get
// phi1, odd get phi2).
inline ClockPhase clock_phase_for_column(int x) {
  return (x % 2 == 0) ? ClockPhase::kPhi1 : ClockPhase::kPhi2;
}

// A full adder bit: returns sum, writes carry.
inline int full_adder(int a, int b, int c, int& carry_out) {
  const int sum = a ^ b ^ c;
  carry_out = (a & b) | (a & c) | (b & c);
  return sum;
}

// Evaluates the combinational Baugh–Wooley array of Figure 5.1 at bit level:
// carry-save rows followed by a carry-propagate adder, with complemented
// edge products and the correction ones. Returns the m+n product bits (LSB
// first). Also reports the critical path in full-adder delays if `depth` is
// non-null (the unit the thesis uses to define the degree of pipelining).
std::vector<int> evaluate_combinational(const MultiplierSpec& spec,
                                        const std::vector<int>& a_bits,
                                        const std::vector<int>& b_bits, int* depth = nullptr);

// --- Structural building blocks (shared by the combinational evaluator and
// --- the pipelined simulator) ----------------------------------------------

// Loads the Baugh–Wooley correction ones onto the unused edge input rails of
// an all-zero carry-save state of width m+n.
void preload_corrections(const MultiplierSpec& spec, std::vector<int>& sum,
                         std::vector<int>& carry);

// Executes carry-save row `i` (one full-adder delay): every column's cell
// adds its possibly-complemented bit product into the running state.
void apply_carry_save_row(const MultiplierSpec& spec, const std::vector<int>& a_bits,
                          const std::vector<int>& b_bits, int i, std::vector<int>& sum,
                          std::vector<int>& carry);

// Ripples the carry-propagate adder over positions [from, to), consuming the
// carry-save state into `result`.
void apply_cpa_segment(const std::vector<int>& sum, const std::vector<int>& carry,
                       std::vector<int>& result, int& ripple, int from, int to);

// Converts between integers and LSB-first two's-complement bit vectors.
std::vector<int> to_bits(std::int64_t value, int width);
std::int64_t from_bits(const std::vector<int>& bits);

}  // namespace rsg::arch
