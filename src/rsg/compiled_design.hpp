// Compile-once half of the compile-once/run-many split.
//
// A CompiledDesign holds everything about a design that does NOT depend on
// the parameter file: the sample layout's cell library and interface table,
// and the design program compiled once — parsed to an AST whose
// identifiers are symbol ids into the program's SymbolTable, whose call
// heads name their handler or definition slot by id, and whose procedure
// bodies address formals and locals by frame slot (lang/ast.hpp). All of it
// is const after construction, so one CompiledDesign can back any number
// of concurrent GenerationSessions — each session overlays its own mutable
// tables on top (layout/cell_table.hpp, iface/interface_table.hpp), and
// each run's interpreter keeps the names it first meets at run time in its
// own symbol overlay; nothing writes the base.
//
// The cell library can additionally be seeded from an RSGB snapshot
// (docs/formats/RSGB.md): the file is mapped read-only and imported before
// the sample text is parsed, so a pre-generated library is shared across
// workers without re-running the designs that produced it.
#pragma once

#include <memory>
#include <string>

#include "iface/interface_table.hpp"
#include "io/sample_layout.hpp"
#include "io/snapshot.hpp"
#include "lang/parser.hpp"
#include "layout/cell_table.hpp"

namespace rsg {

struct CompileOptions {
  // Optional RSGB snapshot imported (read-only mmap) into the cell library
  // before the sample layout is parsed. Empty = none.
  std::string snapshot_path;
};

class CompiledDesign {
 public:
  // Parses `sample_text` (text format or CIF, see load_sample_layout) into
  // the immutable cell/interface tables and `design_text` into the
  // immutable program (lang::parse_program). Throws (rsg::Error and its
  // LayoutError / LangError kinds) on malformed input, so a returned design
  // is always runnable.
  static std::shared_ptr<const CompiledDesign> compile(const std::string& sample_text,
                                                       const std::string& design_text,
                                                       const CompileOptions& options = {});

  const CellTable& cells() const { return cells_; }
  const InterfaceTable& interfaces() const { return interfaces_; }
  const lang::Program& program() const { return program_; }
  const SampleLayoutStats& sample_stats() const { return sample_stats_; }
  const SnapshotReadResult* snapshot_stats() const {
    return has_snapshot_ ? &snapshot_stats_ : nullptr;
  }

  CompiledDesign(const CompiledDesign&) = delete;
  CompiledDesign& operator=(const CompiledDesign&) = delete;

 private:
  CompiledDesign() = default;

  CellTable cells_;
  InterfaceTable interfaces_;
  lang::Program program_;
  SampleLayoutStats sample_stats_;
  SnapshotReadResult snapshot_stats_;
  bool has_snapshot_ = false;
};

}  // namespace rsg
