// Pins of the design-file interpreter's observable behaviour (Ch. 4):
//
//   * the CIF and every work counter of each bundled design at two
//     parameter points — the evaluator's output and its §4.1 lookup count
//     are deterministic, so a change to name resolution, frames or call
//     dispatch that alters either fails here on any host;
//   * the exact text and source location of every interpreter diagnostic,
//     and the name-mapping edge cases where a parameter-file name, a symbol
//     value or an indexed reference meet.
//
// The rows were captured before the compile step resolved names to symbol
// ids; they are the contract that resolution keeps §4.1's semantics.
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/param_file.hpp"
#include "io/snapshot.hpp"
#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"
#include "support/error.hpp"

namespace rsg {
namespace {

// ---------------------------------------------------------------------------
// Output and work on the bundled designs

struct DesignPoint {
  const char* label;
  const char* sample;  // designs/ file names
  const char* design;
  const char* params;
  std::string extra_params;  // appended: later assignments win
  const char* top;           // empty = the most recently made cell
  std::uint64_t tt_seed;     // 0 = no truth table, else TruthTable::random(8, 8, 24, seed)
};

struct Work {
  std::uint32_t cif_crc32;
  std::size_t frames_created;
  std::size_t procedure_calls;
  std::size_t variable_lookups;
  std::size_t cells_made;
  int max_call_depth;
  std::size_t interface_lookups;

  friend bool operator==(const Work&, const Work&) = default;
};

std::string row(const Work& w) {
  std::ostringstream out;
  out << "{0x" << std::hex << w.cif_crc32 << std::dec << "u, " << w.frames_created << ", "
      << w.procedure_calls << ", " << w.variable_lookups << ", " << w.cells_made << ", "
      << w.max_call_depth << ", " << w.interface_lookups << "}";
  return out.str();
}

std::vector<DesignPoint> design_points() {
  return {
      {"decoder decbits=6", "pla.sample", "decoder.rsg", "pla.par", "decbits = 6\n", "decoder", 0},
      {"decoder decbits=8", "pla.sample", "decoder.rsg", "pla.par", "decbits = 8\n", "decoder", 0},
      {"mult asize=8", "mult.sample", "mult.rsg", "mult.par", "asize = 8\n", "", 0},
      {"mult asize=16", "mult.sample", "mult.rsg", "mult.par", "asize = 16\n", "", 0},
      {"ram 8x8", "ram.sample", "ram.rsg", "ram.par", "words = 8\nbits = 8\n", "", 0},
      {"ram 32x16", "ram.sample", "ram.rsg", "ram.par", "words = 32\nbits = 16\n", "", 0},
      {"pla seed=1", "pla.sample", "pla.rsg", "pla.par", "", "pla", 1},
      {"pla seed=2", "pla.sample", "pla.rsg", "pla.par", "", "pla", 2},
      {"pla_folded seed=1", "pla.sample", "pla_folded.rsg", "pla.par", "", "foldedpla", 1},
      {"pla_folded seed=2", "pla.sample", "pla_folded.rsg", "pla.par", "", "foldedpla", 2},
  };
}

Work run_point(const DesignPoint& point) {
  const auto compiled = CompiledDesign::compile(read_text_file(designs_path(point.sample)),
                                                read_text_file(designs_path(point.design)));
  GenerationSession session(compiled);
  lang::Interpreter::EncodingTable encoding;
  if (point.tt_seed != 0) {
    encoding = pla::to_encoding_table(pla::TruthTable::random(8, 8, 24, point.tt_seed));
    session.set_encoding_table(&encoding);
  }
  const GeneratorResult result =
      session.generate(read_text_file(designs_path(point.params)) + point.extra_params, point.top);
  const lang::Interpreter::Stats& s = result.interp_stats;
  return {snapshot_crc32(result.output.data(), result.output.size()),
          s.frames_created,
          s.procedure_calls,
          s.variable_lookups,
          s.cells_made,
          s.max_call_depth,
          result.interface_lookups};
}

TEST(LangPins, InterpreterWorkIsPinnedOnDesigns) {
  // One row per design_points() entry: CIF CRC-32, then every
  // Interpreter::Stats field, then the interface table's lookup count.
  const std::vector<Work> pinned = {
      {0x22eaa0cdu, 0, 0, 12163, 1, 0, 2304},      // decoder decbits=6
      {0x80538e6fu, 0, 0, 64087, 1, 0, 12288},     // decoder decbits=8
      {0xc22eabf8u, 84, 67, 2867, 5, 2, 643},      // mult asize=8
      {0x915b0007u, 292, 259, 11003, 5, 2, 2563},  // mult asize=16
      {0xc1db3953u, 0, 0, 1567, 1, 0, 272},        // ram 8x8
      {0xda9055bfu, 0, 0, 11703, 1, 0, 2080},      // ram 32x16
      {0xabe24671u, 0, 0, 9541, 1, 0, 1612},       // pla seed=1
      {0x904b5ccau, 0, 0, 9581, 1, 0, 1628},       // pla seed=2
      {0xf73b64d0u, 0, 0, 8841, 1, 0, 1428},       // pla_folded seed=1
      {0x271086ecu, 0, 0, 8881, 1, 0, 1444},       // pla_folded seed=2
  };
  const std::vector<DesignPoint> points = design_points();
  std::string actual;
  bool same = pinned.size() == points.size();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Work got = run_point(points[i]);
    actual += "      " + row(got) + ",  // " + points[i].label + "\n";
    if (i < pinned.size() && !(pinned[i] == got)) {
      same = false;
      ADD_FAILURE() << points[i].label << ": got " << row(got) << ", pinned " << row(pinned[i]);
    }
  }
  EXPECT_TRUE(same) << "actual rows:\n" << actual;
}

// ---------------------------------------------------------------------------
// Diagnostics and name mapping

struct Outcome {
  const char* label;
  std::vector<std::string> programs;  // run in order on one Interpreter
  std::string params;                 // parameter-file text applied first
  // The last program's outcome: "value: <display>" or the LangError's
  // what() (which carries line and column), plus the location separately.
  std::string expected;
  int line = 0;
  int column = 0;
};

struct Observed {
  std::string text;
  int line = 0;
  int column = 0;
};

Observed observe(const Outcome& c) {
  CellTable cells;
  InterfaceTable interfaces;
  ConnectivityGraph graph;
  cells.create("cella").add_box(Layer::kMetal1, Box(0, 0, 10, 10));
  cells.create("cellb").add_box(Layer::kPoly, Box(0, 0, 8, 8));
  interfaces.declare("cella", "cella", 1, Interface{{12, 0}, Orientation::kNorth});
  interfaces.declare("cella", "cellb", 2, Interface{{0, 12}, Orientation::kNorth});
  lang::Interpreter::EncodingTable table;
  table.inputs = 2;
  table.outputs = 1;
  table.in = {{1, 0}};
  table.out = {{1}};

  lang::Interpreter interp(cells, interfaces, graph);
  const bool needs_table = c.params.find(".table:") != std::string::npos;
  if (needs_table) interp.set_encoding_table(&table);
  ParameterFile::parse(c.params).apply(interp);
  try {
    lang::Value last;
    for (const std::string& program : c.programs) last = interp.run(lang::parse_program(program));
    return {"value: " + last.to_display_string(), 0, 0};
  } catch (const LangError& e) {
    return {e.what(), e.line(), e.column()};
  }
}

TEST(LangPins, DiagnosticsAndNameMappingArePinned) {
  // Parameter text containing ".table:" attaches a 1-term, 2-input,
  // 1-output encoding table.
  const std::vector<Outcome> cases = {
      {"unbound simple variable",
       {"(+ 1 nosuch)"},
       "",
       "design file:1:6: unbound variable 'nosuch' (not a parameter, local, or cell name)",
       1, 6},
      {"unbound indexed variable",
       {"(assign i 2)\n(+ 1 l.(+ i 1))"},
       "",
       "design file:2:6: unbound variable 'l.3' (not a parameter, local, or cell name)",
       2, 6},
      {"symbol indirection cycle",
       {"(+ 1 a)"},
       "a = b\nb = a\n",
       "design file:1:6: symbol indirection cycle while resolving 'a'",
       1, 6},
      {"unknown callee",
       {"(prog (f 1))"},
       "",
       "design file:1:8: unknown function or macro 'f'",
       1, 8},
      {"definition arity",
       {"(defun f (x) x)\n(f 1 2)"},
       "",
       "design file:2:1: 'f' expects 1 argument(s), got 2",
       2, 1},
      {"builtin arity",
       {"(not 1 2)"},
       "",
       "design file:1:1: not expects 1 argument(s), got 2",
       1, 1},
      {"assign arity",
       {"(assign x)"},
       "",
       "design file:1:1: assign expects 2 argument(s), got 1",
       1, 1},
      {"read arity",
       {"(read 1)"},
       "",
       "design file:1:1: read expects 0 argument(s), got 1",
       1, 1},
      {"read without input",
       {"(read)"},
       "",
       "design file:1:1: read: no input stream attached to the interpreter",
       1, 1},
      {"non-integer index",
       {"(assign s \"x\")\nl.s"},
       "",
       "design file:2:3: index of 'l' must evaluate to an integer, got string",
       2, 3},
      {"non-integer second index",
       {"(assign i 1)\ng.i.(prog \"y\")"},
       "",
       "design file:2:5: index of 'g' must evaluate to an integer, got string",
       2, 5},
      {"assign to a non-variable",
       {"(assign 3 4)"},
       "",
       "design file:1:9: expected a variable",
       1, 9},
      {"subcell of a missing name",
       {"(macro mk (v) (locals w) (assign w v))\n(subcell (mk 1) q)"},
       "",
       "design file:2:17: subcell: no variable 'q' in the given environment",
       2, 17},
      {"subcell of a missing indexed name",
       {"(assign e (array cella 2 1))\n(subcell e c.3)"},
       "",
       "design file:2:12: subcell: no variable 'c.3' in the given environment",
       2, 12},
      {"subcell of a non-environment",
       {"(subcell 5 x)"},
       "",
       "design file:1:10: subcell: first argument must be a macro environment, got integer",
       1, 10},
      {"macro naming rule",
       {"(macro foo (x) x)"},
       "",
       "design file:1:8: macro name 'foo' must begin with 'm'",
       1, 8},
      {"function naming rule",
       {"(defun mfoo (x) x)"},
       "",
       "design file:1:8: function name 'mfoo' must not begin with 'm' (reserved for macros)",
       1, 8},
      {"builtin redefinition (defun)",
       {"(defun print (x) x)"},
       "",
       "design file:1:8: 'print' is a built-in and cannot be redefined",
       1, 8},
      {"builtin redefinition (macro)",
       {"(macro mod (a b) a)"},
       "",
       "design file:1:8: 'mod' is a built-in and cannot be redefined",
       1, 8},
      {"defun without formals",
       {"(defun f)"},
       "",
       "design file:1:1: defun needs a name and a formals list",
       1, 1},
      {"procedure name not plain",
       {"(defun 3 () 1)"},
       "",
       "design file:1:8: procedure name must be a plain name",
       1, 8},
      {"formals not a list",
       {"(defun f x 1)"},
       "",
       "design file:1:10: formals must be a parenthesized list",
       1, 10},
      {"formal not plain",
       {"(defun f (1) 1)"},
       "",
       "design file:1:11: formal parameter must be a plain name",
       1, 11},
      {"local not plain",
       {"(defun f () (locals 1) 1)"},
       "",
       "design file:1:21: local must be a plain name",
       1, 21},
      {"depth limit",
       {"(defun f (n) (f (+ n 1)))\n(f 0)"},
       "",
       "design file:1:14: call depth limit exceeded (runaway recursion?)",
       1, 14},
      {"mk_instance of an unknown cell name",
       {"(mk_instance x \"nosuch\")"},
       "",
       "design file:1:16: no cell named 'nosuch' in the cell table",
       1, 16},
      {"mk_instance of an unbound cell variable",
       {"(mk_instance x nosuch)"},
       "",
       "design file:1:16: unbound variable 'nosuch' (not a parameter, local, or cell name)",
       1, 16},
      {"mk_instance of a non-cell",
       {"(mk_instance x 5)"},
       "",
       "design file:1:16: expected a cell, got integer",
       1, 16},
      {"mk_cell name not a name",
       {"(mk_instance x cella)\n(mk_cell 5 x)"},
       "",
       "design file:2:10: expected a name (string or symbol), got integer",
       2, 10},
      {"connect of a non-node",
       {"(connect 1 2 3)"},
       "",
       "design file:1:10: expected an instance node, got integer",
       1, 10},
      {"connect interface not an integer",
       {"(mk_instance x cella)\n(connect x x \"i\")"},
       "",
       "design file:2:14: expected an integer, got string",
       2, 14},
      {"layout error at the call site",
       {"(mk_instance x cella)\n(mk_instance y cellb)\n(connect x y 9)\n(mk_cell \"bad\" x)"},
       "",
       "design file:4:1: no interface #9 between 'cella' and 'cellb' — is it present in the "
       "sample layout?",
       4, 1},
      {"declare_interface first not a subcell",
       {"(mk_instance x cella)\n(mk_instance y cella)\n(connect x y 1)\n"
        "(assign c (mk_cell \"cc\" x))\n(mk_instance z cella)\n(declare_interface c c 5 z y 1)"},
       "",
       "design file:6:26: declare_interface: first instance is not a subcell of 'cc'",
       6, 26},
      {"declare_interface second not a subcell",
       {"(mk_instance x cella)\n(mk_instance y cella)\n(connect x y 1)\n"
        "(assign c (mk_cell \"cc\" x))\n(mk_instance z cella)\n(declare_interface c c 5 x z 1)"},
       "",
       "design file:6:28: declare_interface: second instance is not a subcell of 'cc'",
       6, 28},
      {"array count",
       {"(array cella 0 1)"},
       "",
       "design file:1:14: array: count must be >= 1",
       1, 14},
      {"do syntax",
       {"(do (i 1 2))"},
       "",
       "design file:1:1: do expects (do (var init next exit-condition) body...)",
       1, 1},
      {"do variable not plain",
       {"(do (1 1 2 3) 4)"},
       "",
       "design file:1:6: do loop variable must be a plain name",
       1, 6},
      {"cond clause",
       {"(cond 1)"},
       "",
       "design file:1:7: cond clause must be (test statement...)",
       1, 7},
      {"empty list",
       {"()"},
       "",
       "design file:1:1: cannot evaluate an empty list",
       1, 1},
      {"operator not plain",
       {"(l.1 2)"},
       "",
       "design file:1:2: operator position must be a plain name",
       1, 2},
      {"add without arguments",
       {"(+)"},
       "",
       "design file:1:1: + needs at least one argument",
       1, 1},
      {"sub without arguments",
       {"(-)"},
       "",
       "design file:1:1: - needs at least one argument",
       1, 1},
      {"mul without arguments",
       {"(*)"},
       "",
       "design file:1:1: * needs at least one argument",
       1, 1},
      {"division by zero",
       {"(// 1 0)"},
       "",
       "design file:1:1: division by zero",
       1, 1},
      {"mod by zero",
       {"(mod 1 0)"},
       "",
       "design file:1:1: mod by zero",
       1, 1},
      {"integer expected",
       {"(+ 1 \"two\")"},
       "",
       "design file:1:6: expected an integer, got string",
       1, 6},
      {"no encoding table",
       {"(tt_inputs)"},
       "",
       "design file:1:1: no encoding table (truth table) attached to this generation run",
       1, 1},
      {"tt_in term range",
       {"(tt_in 2 1)"},
       ".table: on\n",
       "design file:1:8: tt_in: term index out of range",
       1, 8},
      {"tt_in column range",
       {"(tt_in 1 3)"},
       ".table: on\n",
       "design file:1:10: tt_in: column out of range",
       1, 10},
      {"tt_out term range",
       {"(tt_out 0 1)"},
       ".table: on\n",
       "design file:1:9: tt_out: term index out of range",
       1, 9},
      {"tt_out column range",
       {"(tt_out 1 2)"},
       ".table: on\n",
       "design file:1:11: tt_out: column out of range",
       1, 11},
      {"tt_in reads the table",
       {"(+ (tt_in 1 1) (tt_out 1 1) (tt_terms) (tt_inputs) (tt_outputs))"},
       ".table: on\n",
       "value: 6",
       0, 0},
      // Name mapping: parameter-file names, symbol values and indexed
      // references address the same bindings exactly when today's mangled
      // spelling ("l.3", "cl.3.7") matches.
      {"parameter l.3 read as l.(+ 1 2)",
       {"l.(+ 1 2)"},
       "l.3 = 5\n",
       "value: 5",
       0, 0},
      {"parameter l.03 is not l.3",
       {"(+ 1 l.3)"},
       "l.03 = 5\n",
       "design file:1:6: unbound variable 'l.3' (not a parameter, local, or cell name)",
       1, 6},
      {"parameter l.-1 read as l.(- 0 1)",
       {"l.(- 0 1)"},
       "l.-1 = 4\n",
       "value: 4",
       0, 0},
      {"two-index parameter",
       {"cl.3.(+ 3 4)"},
       "cl.3.7 = 11\n",
       "value: 11",
       0, 0},
      {"symbol value names an indexed binding",
       {"x"},
       "l.3 = 9\nx = l.3\n",
       "value: 9",
       0, 0},
      {"three dots only through a symbol value",
       {"z"},
       "a.1.2.3 = 7\nz = a.1.2.3\n",
       "value: 7",
       0, 0},
      {"three dots not reachable by index",
       {"(+ 1 a.1.2)"},
       "a.1.2.3 = 7\n",
       "design file:1:6: unbound variable 'a.1.2' (not a parameter, local, or cell name)",
       1, 6},
      {"symbol value names a cell",
       {"(mk_instance x corecell)\n(mk_cell \"top\" x)"},
       "corecell = cella\n",
       "value: <cell top>",
       0, 0},
      {"symbol value names a missing cell",
       {"(mk_instance x corecell)"},
       "corecell = nowhere\n",
       "design file:1:16: unbound variable 'nowhere' (not a parameter, local, or cell name)",
       1, 16},
      {"string parameter names a cell",
       {"(mk_instance x cc)\n(mk_cell \"top\" x)"},
       "cc = \"cellb\"\n",
       "value: <cell top>",
       0, 0},
      {"assign into a program-indexed name",
       {"(assign l.3 2)\n(assign l.(+ 1 3) 5)\n(+ l.3 l.4)"},
       "",
       "value: 7",
       0, 0},
      {"do binds indexed names",
       {"(do (i 1 (+ i 1) (> i 3)) (assign v.i (* i i)))\n(+ v.1 v.2 v.3)"},
       "",
       "value: 14",
       0, 0},
      {"call before its defun ran",
       {"(f 1)\n(defun f (x) x)"},
       "",
       "design file:1:2: unknown function or macro 'f'",
       1, 2},
      {"a body that redefines its own procedure",
       {"(defun f () (defun f () 2) 1)\n(+ (* 10 (f)) (f))"},
       "",
       "value: 12",
       0, 0},
      {"later defun replaces the definition",
       {"(defun f () 1)\n(defun f () 2)\n(f)"},
       "",
       "value: 2",
       0, 0},
      {"definition from an earlier run",
       {
           "(defun f (x) (locals y) (assign y (* x 2)) y)",
           "(+ (f 3) 1)"},
       "",
       "value: 7",
       0, 0},
      {"macro environment from an earlier run",
       {
           "(macro mk (v) (locals w) (assign w v) (assign q.2 (+ v 1)))",
           "(assign e (mk 4))",
           "(+ (subcell e w) (subcell e q.(+ 1 1)))"},
       "",
       "value: 9",
       0, 0},
      {"assign writes an existing global from a procedure",
       {"(defun f () (assign g 7))\n(f)\ng"},
       "g = 1\n",
       "value: 7",
       0, 0},
      {"assign creates a local when no global exists",
       {"(defun f () (assign h 7) h)\n(f)\nh"},
       "",
       "design file:3:1: unbound variable 'h' (not a parameter, local, or cell name)",
       3, 1},
      {"formals shadow globals",
       {"(defun f (g) g)\n(+ (f 5) g)"},
       "g = 100\n",
       "value: 105",
       0, 0},
      {"duplicate formal: the last binding wins",
       {"(defun f (x x) x)\n(f 1 2)"},
       "",
       "value: 2",
       0, 0},
      {"local shadows a formal",
       {"(defun f (x) (locals x) x)\n(f 1)"},
       "",
       "value: nil",
       0, 0},
      {"symbol value through a procedure frame",
       {"(defun f (alias) alias)\n(f target)"},
       "target = 42\n",
       "value: 42",
       0, 0},
  };
  for (const Outcome& c : cases) {
    const Observed got = observe(c);
    EXPECT_EQ(got.text, c.expected) << c.label;
    EXPECT_EQ(got.line, c.line) << c.label;
    EXPECT_EQ(got.column, c.column) << c.label;
  }
}

}  // namespace
}  // namespace rsg
