// The top-level RSG driver (Figure 1.1 / Figure 3.1) — legacy one-shot form.
//
// Orchestrates the three inputs — sample layout (graphical), design file
// (procedural), parameter file (per-case personalization) — through the
// pipeline: initialize interface table from the sample; run the design file
// under the parameter-file global environment, which builds connectivity
// graphs and expands them into cells; then write the finished layout.
//
// Generator re-reads the sample and re-parses the design on every run. The
// compile-once/run-many path (rsg/compiled_design.hpp + rsg/session.hpp)
// splits those costs out; both paths execute the identical run core
// (rsg/pipeline.hpp), so their outputs are byte-identical. Prefer sessions
// for servers; Generator remains the convenient form for scripts, tests,
// and single-shot CLI runs.
//
// Per-phase wall-clock times are recorded because §4.5 reports the original
// split "roughly three equal parts: reading in the source file ..., parsing
// and executing ..., and writing the output file" — bench_t45_generation
// reproduces that measurement.
#pragma once

#include <memory>
#include <string>

#include "io/snapshot.hpp"
#include "rsg/pipeline.hpp"

namespace rsg {

class Generator {
 public:
  Generator();

  // All three inputs as in-memory text. `top_cell` overrides the default top
  // choice (the last cell the design file created); the ".top_cell"
  // parameter-file directive does the same. The result owns a reference to
  // the generator's state, so it stays valid after the Generator is gone.
  GeneratorResult run(const std::string& sample_text, const std::string& design_text,
                      const std::string& param_text, const std::string& top_cell = {});

  // File-based variant: reads the three files, and writes the CIF to
  // `output_path` when it is not empty. The parameter file's
  // `.snapshot_file` directive additionally writes the finished cell table
  // as an RSGB snapshot (docs/formats/RSGB.md) rooted at the output cell.
  GeneratorResult run_files(const std::string& sample_path, const std::string& design_path,
                            const std::string& param_path, const std::string& output_path = {});

  // Loads an RSGB snapshot into the generator's cell table — e.g. a
  // previously generated layout reused as a cell library. Cell names must
  // not collide with cells already in the table.
  SnapshotReadResult import_snapshot(const std::string& path);

  // Writes the generator's entire cell table as an RSGB snapshot. `root`
  // names the root cell (empty = none recorded).
  SnapshotWriteStats export_snapshot(const std::string& path, const std::string& root = {}) const;

  CellTable& cells() { return state_->cells; }
  InterfaceTable& interfaces() { return state_->interfaces; }
  ConnectivityGraph& graph() { return state_->graph; }

  // Attaches a PLA-style encoding table, exposed to the design file through
  // the tt_* builtins (§4). The table must outlive run().
  void set_encoding_table(const lang::Interpreter::EncodingTable* table) { encoding_ = table; }

  // Requests post-generation compaction of the top cell. The parameter-file
  // directive `.compact:xy` enables the same with default options.
  void set_compaction(const CompactionRequest& request) { compaction_ = request; }

 private:
  // Shared so GeneratorResult::keepalive can retain the tables past the
  // Generator's lifetime. Declaration order matters: graph nodes reference
  // cells.
  struct State {
    CellTable cells;
    InterfaceTable interfaces;
    ConnectivityGraph graph;
  };

  std::shared_ptr<State> state_;
  const lang::Interpreter::EncodingTable* encoding_ = nullptr;
  CompactionRequest compaction_;
};

}  // namespace rsg
