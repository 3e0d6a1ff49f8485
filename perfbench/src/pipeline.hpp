// One generation request, run two ways over a compiled design:
//
//   run_session  the product path, GenerationSession::generate (what the
//                CLI and the serving core call), which the end-to-end
//                metrics time;
//   run_staged   the same request decomposed into the layers' public calls
//                (ParameterFile::parse, Interpreter::run, flatten_boxes,
//                compact_flat_schedule, cif_to_string), one span each — the
//                traced run's path. The faithfulness check holds it to
//                run_session's CIF byte for byte.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"
#include "trace.hpp"

namespace perfbench {

struct Report;

using CompiledSet = std::map<std::string, std::shared_ptr<const rsg::CompiledDesign>>;

// Compiles every design (span rsg.compile); a traced run also times the
// sample-layout load (io.sample_load) and the design-file parse
// (lang.parse) on their own.
CompiledSet compile_designs(const DesignSet& files, Trace& trace);

struct ItemResult {
  std::unique_ptr<rsg::GenerationSession> session;  // owns the layout `result.top` points into
  rsg::GeneratorResult result;
  std::vector<rsg::LayerBox> flat;  // run_staged: the flattened top that was compacted
};

// `base` is the compaction request the caller would install with
// set_compaction (serve: ServeOptions::compaction); `directive` selects the
// CLI's `.compact:xy` parameter line instead.
ItemResult run_session(const CompiledSet& compiled, const DesignSet& files, const Input& input,
                       const rsg::CompactionRequest& base, bool directive);
ItemResult run_staged(const CompiledSet& compiled, const DesignSet& files, const Input& input,
                      const rsg::CompactionRequest& base, bool directive, Trace& trace,
                      long request);

// Counters of a traced item, recorded at the request boundary.
void count_item(Trace& trace, const ItemResult& item);

// The probe x pass of the traced run: constraint generation
// (ConstraintSystemBuilder::emit_batch) then the longest-path solve
// (solve_leftmost_worklist) on the item's flattened geometry.
void probe_x_pass(Trace& trace, const std::vector<rsg::LayerBox>& flat, long request);

// What the structural checks need of an item: its CIF and the box counts
// of its layout. Workloads keep these, not the item, until the measured
// passes end, so the checks' read-back copy of a layout stays out of the
// peak RSS.
struct ItemFacts {
  std::string cif;
  std::size_t top_boxes = 0;     // flattened boxes of the output's top cell
  bool compacted = false;
  std::size_t boxes_kept = 0;    // compacted: boxes the compactor returned
  std::size_t boxes_before = 0;  // compacted: flattened boxes of the original top
};
ItemFacts item_facts(ItemResult&& item);

// Checks that do not rely on the CIF writer: the CIF read back flattens to
// the generated box count, and compaction kept every box. Returns the
// output digest "<crc32 of the CIF>/<flattened boxes>"; failures go to
// `report`.
std::string check_item(Report& report, const std::string& key, const ItemFacts& facts);

// The same for a CIF string alone (serve responses); `bbox_area`, when
// given, receives the bounding-box area of the layout read back.
std::string check_cif(Report& report, const std::string& key, const std::string& cif,
                      double* bbox_area = nullptr);

}  // namespace perfbench
