// RSG-based PLA generation (§1.2.2: "The RSG can generate any PLA that HPLA
// can").
//
// The PLA cell library lives in designs/pla.sample (cells + by-example
// interfaces); the architecture lives in designs/pla.rsg (a design file
// whose loops read the attached truth table through the tt_* builtins); the
// personalization (input/output/term counts) is synthesized into a
// parameter file here. The same sample layout also builds decoders
// (designs/decoder.rsg) — the §1.2.2 argument that a sample layout must not
// be constrained to look like the finished product.
//
// Geometry convention (database units), shared with the HPLA baseline so
// outputs are comparable:
//   * and/or plane cells are kCellW x kCellH, rows grow DOWNWARD
//     (row t occupies y in [-t*kCellH, -(t-1)*kCellH));
//   * crosspoint masks put a kCutW-square cut at x-offset kTrueX (bit 1),
//     kCompX (bit 0) in the AND plane and kOrX in the OR plane.
#pragma once

#include <string>

#include "lang/interp.hpp"
#include "pla/truth_table.hpp"
#include "rsg/pipeline.hpp"

namespace rsg::pla {

inline constexpr Coord kCellW = 12;
inline constexpr Coord kCellH = 10;
inline constexpr Coord kCutW = 2;
inline constexpr Coord kTrueX = 2;   // cut x-offset for a '1' crosspoint
inline constexpr Coord kCompX = 8;   // cut x-offset for a '0' crosspoint
inline constexpr Coord kOrX = 5;     // cut x-offset for an OR crosspoint
inline constexpr Coord kConnectW = 8;  // width of the connect-ao cell

// Converts a truth table to the interpreter's encoding-table form.
lang::Interpreter::EncodingTable to_encoding_table(const TruthTable& table);

// Generates a PLA layout for `table` through the full RSG pipeline: the
// bundled sample and design compiled, then one GenerationSession run with
// the table attached. The returned result's `top` is the PLA cell; its
// `keepalive` owns the session, and with it every cell.
GeneratorResult generate_pla(const TruthTable& table);

// Generates an n-input decoder from the SAME sample layout.
GeneratorResult generate_decoder(int num_inputs);

// Generates a column-folded PLA (§1.2.3): output pair (2c-1, 2c) shares OR
// column c, split between upper and lower term segments. Requires a
// fold-compatible personality; throws otherwise.
GeneratorResult generate_folded_pla(const TruthTable& table);

// True when outputs 2c-1 restrict their crosspoints to terms 1..p/2 and
// outputs 2c to terms p/2+1..p, for every column pair c.
bool is_foldable(const TruthTable& table);

// Recovers the personality from a finished PLA layout by locating the
// crosspoint cut boxes — the equivalence oracle used to compare the RSG
// and HPLA outputs. `origin` is the top-left corner of the AND plane.
TruthTable recover_truth_table(const Cell& layout, int num_inputs, int num_outputs,
                               int num_terms, Point origin = {0, 0});

}  // namespace rsg::pla
