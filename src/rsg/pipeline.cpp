#include "rsg/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "io/checkpoint.hpp"
#include "io/cif_writer.hpp"
#include "layout/flatten.hpp"
#include "support/error.hpp"

namespace rsg {

namespace detail {

GeneratorResult execute_generation(CellTable& cells, InterfaceTable& interfaces,
                                   ConnectivityGraph& graph, const lang::Program& program,
                                   const ParameterFile& params, const std::string& top_cell,
                                   const lang::Interpreter::EncodingTable* encoding,
                                   const CompactionRequest& base_request,
                                   const CancelToken* cancel) {
  using Clock = std::chrono::steady_clock;
  GeneratorResult result;

  // Phase boundary: a request whose deadline already passed (or that was
  // cancelled while queued) is rejected before ANY pipeline work runs.
  if (cancel != nullptr) cancel->check("generation start");

  // Parse and execute the parameter + design files. The parameter file
  // populates the global environment first; the design file then runs
  // immersed in it (§4.1).
  const auto t1 = Clock::now();
  lang::Interpreter interp(cells, interfaces, graph);
  if (encoding != nullptr) interp.set_encoding_table(encoding);
  params.apply(interp);
  interp.run(program);
  const auto t2 = Clock::now();
  result.times.execute_design = t2 - t1;
  result.interp_stats = interp.stats();

  // Pick the top cell: explicit argument, then the .top_cell directive, then
  // the most recently created cell.
  std::string top_name = top_cell;
  if (top_name.empty()) {
    if (const std::string* directive = params.directive("top_cell")) top_name = *directive;
  }
  if (top_name.empty()) {
    if (cells.names_in_order().empty()) {
      throw LayoutError("design file produced no cells — nothing to output");
    }
    top_name = cells.names_in_order().back();
  }
  // Const lookup: the top may be a sample cell living in a shared compiled
  // base, which mutable get() refuses to hand out.
  result.top = &std::as_const(cells).get(top_name);

  // Optional post-generation compaction: the `.compact:xy` directive
  // enables the default request; set_compaction overrides it. The compacted
  // flat cell replaces the hierarchical top in the result and the output.
  CompactionRequest request = base_request;
  if (const std::string* mode = params.directive("compact"); mode != nullptr) {
    if (*mode != "xy") {
      throw Error("parameter file: unknown .compact mode '" + *mode + "' (expected 'xy')");
    }
    request.enabled = true;
  }
  if (request.enabled) {
    // Phase boundary: generation is done; don't start compaction (and its
    // rounds) for a request that already ran out of time. The schedule
    // polls the same token between rounds, after each checkpoint flush.
    if (cancel != nullptr) {
      cancel->check("compaction start");
      request.schedule.cancel = cancel;
    }
    const auto t_compact = Clock::now();
    const std::vector<LayerBox> flat = flatten_boxes(*result.top);
    std::vector<bool> stretchable;
    if (!request.stretchable_layers.empty()) {
      stretchable.reserve(flat.size());
      for (const LayerBox& lb : flat) {
        stretchable.push_back(std::find(request.stretchable_layers.begin(),
                                        request.stretchable_layers.end(),
                                        lb.layer) != request.stretchable_layers.end());
      }
    }
    compact::XyCheckpoint resume;
    if (!request.checkpoint_in.empty()) {
      resume = read_compaction_checkpoint_file(request.checkpoint_in);
      request.schedule.resume = &resume;
      if (stretchable.empty()) stretchable = resume.stretchable;
    }
    if (!request.checkpoint_out.empty()) {
      // Rewrite after every round: the file always holds the most recent
      // completed round, so an interrupted run resumes from where it died.
      const std::string path = request.checkpoint_out;
      request.schedule.checkpoint_sink = [path](const compact::XyCheckpoint& ck) {
        write_compaction_checkpoint_file(path, ck);
      };
    }
    result.compaction =
        compact::compact_flat_schedule(flat, request.rules, request.flat, request.schedule,
                                       stretchable);
    Cell& compacted = cells.create(top_name + "_compacted");
    for (const LayerBox& lb : result.compaction.boxes) compacted.add_box(lb.layer, lb.box);
    result.top = &compacted;
    result.compacted = true;
    result.times.compact = Clock::now() - t_compact;
  }

  // Phase boundary: the layout exists but rendering large CIF text is real
  // work — skip it for an abandoned request.
  if (cancel != nullptr) cancel->check("output rendering");

  // Write the output (CIF, in memory; callers persist as needed).
  const auto t_render = Clock::now();
  result.output = cif_to_string(*result.top);
  result.times.write_output = Clock::now() - t_render;

  result.interface_lookups = interfaces.lookups();
  return result;
}

}  // namespace detail

std::string designs_path(const std::string& filename) {
  return std::string(RSG_DESIGNS_DIR) + "/" + filename;
}

}  // namespace rsg
