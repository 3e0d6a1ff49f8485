// Shared run-phase core of the RSG pipeline (Figure 1.1 / Figure 3.1).
//
// Both front doors — the legacy one-shot rsg::Generator and the
// compile-once/run-many rsg::GenerationSession — funnel into
// detail::execute_generation, so a session run is byte-identical to a
// legacy run by construction: same interpreter, same top-cell selection,
// same compaction hand-off, same CIF writer, in the same order.
//
// The request/result structs live here (not generator.hpp) so session and
// serve layers can use them without pulling in the legacy driver;
// generator.hpp includes this header, which keeps every existing
// `#include "rsg/generator.hpp"` user source-compatible.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "compact/design_rule_table.hpp"
#include "compact/flat_compactor.hpp"
#include "compact/xy_schedule.hpp"
#include "graph/connectivity_graph.hpp"
#include "iface/interface_table.hpp"
#include "io/param_file.hpp"
#include "io/sample_layout.hpp"
#include "lang/interp.hpp"
#include "layout/cell_table.hpp"
#include "support/cancel.hpp"

namespace rsg {

// Post-generation compaction (§6.4 wired into the Figure 1.1 driver): after
// the design file has assembled the top cell, flatten it, run the
// alternating x/y schedule, and emit the compacted geometry as the output
// layout. Requested programmatically via set_compaction or from the
// parameter file with the directive `.compact:xy`.
struct CompactionRequest {
  // Best effort by default: a generated layout that violates the rule
  // table on one axis still compacts on the other (the skip is recorded in
  // GeneratorResult::compaction).
  static compact::XyScheduleOptions default_schedule() {
    compact::XyScheduleOptions options;
    options.best_effort = true;
    return options;
  }

  bool enabled = false;
  compact::CompactionRules rules;  // defaults to the MOSIS lambda table
  compact::FlatOptions flat;
  compact::XyScheduleOptions schedule = default_schedule();
  // Boxes on these layers may shrink to minimum width (buses); all other
  // boxes stay rigid (devices).
  std::vector<Layer> stretchable_layers;
  // RSGC checkpointing (io/checkpoint.hpp): `checkpoint_out` rewrites the
  // file after every completed schedule round; `checkpoint_in` resumes the
  // schedule from such a file instead of starting at round 1. The resumed
  // geometry is bit-for-bit the uninterrupted run's. Exposed on rsg_cli as
  // --checkpoint-out / --checkpoint-in.
  std::string checkpoint_in;
  std::string checkpoint_out;
};

// Wall time per pipeline phase. The phases are timed separately and do
// not overlap; total() is their sum.
struct PhaseTimes {
  std::chrono::duration<double> read_sample{};     // sample layout + interface table
  std::chrono::duration<double> execute_design{};  // parse + run parameter and design files
  std::chrono::duration<double> compact{};         // flatten + x/y schedule; 0 when off
  std::chrono::duration<double> write_output{};    // CIF render
  std::chrono::duration<double> total() const {
    return read_sample + execute_design + compact + write_output;
  }
};

struct GeneratorResult {
  // The generated layout. The pointer targets a cell table retained by
  // `keepalive`, so the result stays valid after the Generator or
  // GenerationSession that produced it is destroyed.
  const Cell* top = nullptr;
  std::string output;                  // CIF text (also written to file if requested)
  PhaseTimes times;
  SampleLayoutStats sample_stats;
  lang::Interpreter::Stats interp_stats;
  std::size_t interface_lookups = 0;
  // Filled when post-generation compaction ran (see CompactionRequest);
  // `top` then points at the compacted flat cell.
  bool compacted = false;
  compact::XyScheduleResult compaction;
  // Owns the state `top` points into (the producer's cell table and, for
  // sessions, the compiled design underneath it). Opaque on purpose:
  // holders only need the lifetime, not the type.
  std::shared_ptr<const void> keepalive;
};

namespace detail {

// Phases 2–4 of the pipeline: run the parameter-file environment + design
// program against the given tables, pick the top cell, optionally compact,
// and render CIF. Phase 1 (sample loading) is the caller's job — the legacy
// Generator does it per run, CompiledDesign once at compile time. The
// caller also stamps result.sample_stats / times.read_sample / keepalive,
// and adds the time it spent parsing the inputs to times.execute_design.
//
// `cancel` (optional) is polled at every phase boundary — before the design
// program runs, before compaction, between compaction rounds (via
// XyScheduleOptions::cancel), and before output rendering — and unwinds
// with StatusError(DEADLINE_EXCEEDED | CANCELLED) when it fires.
GeneratorResult execute_generation(CellTable& cells, InterfaceTable& interfaces,
                                   ConnectivityGraph& graph, const lang::Program& program,
                                   const ParameterFile& params, const std::string& top_cell,
                                   const lang::Interpreter::EncodingTable* encoding,
                                   const CompactionRequest& base_request,
                                   const CancelToken* cancel = nullptr);

}  // namespace detail

// Resolves a data file shipped in the repository's designs/ directory.
std::string designs_path(const std::string& filename);

}  // namespace rsg
