#include "pipeline.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "compact/bellman_ford.hpp"
#include "compact/constraint_builder.hpp"
#include "compact/flat_compactor.hpp"
#include "compact/xy_schedule.hpp"
#include "io/cif_reader.hpp"
#include "io/cif_writer.hpp"
#include "io/param_file.hpp"
#include "io/sample_layout.hpp"
#include "lang/interp.hpp"
#include "lang/parser.hpp"
#include "layout/flatten.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "support/error.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

rsg::lang::Interpreter::EncodingTable encode(const std::string& truth_table) {
  return rsg::pla::to_encoding_table(rsg::pla::TruthTable::parse(truth_table));
}

const char kCompactedSuffix[] = "_compacted";

}  // namespace

CompiledSet compile_designs(const DesignSet& files, Trace& trace) {
  CompiledSet compiled;
  long id = 0;
  for (const auto& [name, design] : files) {
    {
      Trace::Scope span(trace, "rsg.compile", id);
      compiled[name] = rsg::CompiledDesign::compile(design.sample, design.program);
    }
    if (trace.enabled()) {
      rsg::CellTable cells;
      rsg::InterfaceTable interfaces;
      {
        Trace::Scope span(trace, "io.sample_load", id);
        rsg::load_sample_layout(design.sample, cells, interfaces);
      }
      Trace::Scope span(trace, "lang.parse", id);
      rsg::lang::parse_program(design.program);
    }
    ++id;
  }
  return compiled;
}

ItemResult run_session(const CompiledSet& compiled, const DesignSet& files, const Input& input,
                       const rsg::CompactionRequest& base, bool directive) {
  const DesignFiles& design = files.at(input.design);
  ItemResult item;
  item.session = std::make_unique<rsg::GenerationSession>(compiled.at(input.design));
  std::optional<rsg::lang::Interpreter::EncodingTable> encoding;
  if (!input.truth_table.empty()) {
    encoding = encode(input.truth_table);
    item.session->set_encoding_table(&*encoding);
  }
  if (!directive && input.compact) {
    rsg::CompactionRequest request = base;
    request.enabled = true;
    item.session->set_compaction(request);
  }
  item.result = item.session->generate(parameter_text(design, input, directive), design.top_cell);
  return item;
}

// Mirrors rsg::detail::execute_generation step for step; the faithfulness
// check proves it produces the same CIF.
ItemResult run_staged(const CompiledSet& compiled, const DesignSet& files, const Input& input,
                      const rsg::CompactionRequest& base, bool directive, Trace& trace,
                      long request_id) {
  const DesignFiles& design = files.at(input.design);
  ItemResult item;
  item.session = std::make_unique<rsg::GenerationSession>(compiled.at(input.design));
  rsg::GenerationSession& session = *item.session;
  rsg::GeneratorResult& result = item.result;
  Trace::Scope request_span(trace, "rsg.generate", request_id);

  std::optional<rsg::lang::Interpreter::EncodingTable> encoding;
  if (!input.truth_table.empty()) {
    Trace::Scope span(trace, "pla.encode", request_id);
    encoding = encode(input.truth_table);
  }
  rsg::ParameterFile params;
  {
    Trace::Scope span(trace, "io.param_parse", request_id);
    params = rsg::ParameterFile::parse(parameter_text(design, input, directive));
  }
  {
    Trace::Scope span(trace, "lang.interp", request_id);
    rsg::lang::Interpreter interp(session.cells(), session.interfaces(), session.graph());
    if (encoding) interp.set_encoding_table(&*encoding);
    params.apply(interp);
    interp.run(session.design().program());
    result.interp_stats = interp.stats();
  }

  std::string top_name = design.top_cell;
  if (top_name.empty()) {
    if (const std::string* top = params.directive("top_cell")) top_name = *top;
  }
  if (top_name.empty()) {
    if (session.cells().names_in_order().empty()) throw rsg::LayoutError("no cells produced");
    top_name = session.cells().names_in_order().back();
  }
  result.top = &std::as_const(session.cells()).get(top_name);

  rsg::CompactionRequest compaction = base;
  if (!directive && input.compact) compaction.enabled = true;
  if (const std::string* mode = params.directive("compact"); mode != nullptr && *mode == "xy") {
    compaction.enabled = true;
  }
  if (compaction.enabled) {
    {
      Trace::Scope span(trace, "layout.flatten", request_id);
      item.flat = rsg::flatten_boxes(*result.top);
    }
    {
      Trace::Scope span(trace, "compact.schedule", request_id);
      result.compaction = rsg::compact::compact_flat_schedule(item.flat, compaction.rules,
                                                              compaction.flat, compaction.schedule);
    }
    rsg::Cell& compacted = session.cells().create(top_name + kCompactedSuffix);
    for (const rsg::LayerBox& lb : result.compaction.boxes) compacted.add_box(lb.layer, lb.box);
    result.top = &compacted;
    result.compacted = true;
  }
  {
    Trace::Scope span(trace, "io.cif_render", request_id);
    result.output = rsg::cif_to_string(*result.top);
  }
  result.interface_lookups = session.interfaces().lookups();
  return item;
}

void count_item(Trace& trace, const ItemResult& item) {
  const rsg::GeneratorResult& result = item.result;
  trace.count("lang.procedure_calls", static_cast<double>(result.interp_stats.procedure_calls));
  trace.count("lang.variable_lookups", static_cast<double>(result.interp_stats.variable_lookups));
  trace.count("lang.frames_created", static_cast<double>(result.interp_stats.frames_created));
  trace.count("lang.cells_made", static_cast<double>(result.interp_stats.cells_made));
  trace.count("iface.interface_lookups", static_cast<double>(result.interface_lookups));
  trace.count("io.cif_bytes", static_cast<double>(result.output.size()));
  if (!result.compacted) return;
  trace.count("layout.flat_boxes", static_cast<double>(item.flat.size()));
  trace.count("compact.rounds", result.compaction.rounds);
  for (const rsg::compact::RoundStats& round : result.compaction.round_stats) {
    trace.count(round.round == 1 ? "compact.round1_ms" : "compact.post_round_ms", round.wall_ms);
    trace.count("compact.constraints", static_cast<double>(round.constraints_emitted));
    trace.count("compact.partners_reused", static_cast<double>(round.partners_reused));
    trace.count("compact.partners_reswept", static_cast<double>(round.partners_reswept));
    trace.count("compact.solve_pops", static_cast<double>(round.solve_pops));
    const int skipped = (round.x_skipped ? 1 : 0) + (round.y_skipped ? 1 : 0);
    trace.count("compact.skipped_passes", skipped);
    if (skipped > 0) trace.count("compact.skipped_round_ms", round.wall_ms);
    if (round.round > 1) {
      // Rounds after the first offer each axis pass a warm start.
      trace.count("compact.warm_attempts", 2 - skipped);
      trace.count("compact.warm_accepts", (round.warm_x ? 1 : 0) + (round.warm_y ? 1 : 0));
    }
  }
}

void probe_x_pass(Trace& trace, const std::vector<rsg::LayerBox>& flat, long request) {
  rsg::compact::FlatOptions options;
  rsg::Coord width_before = 0;
  std::vector<rsg::compact::CompactionBox> boxes =
      rsg::compact::normalized_compaction_boxes(flat, options, {}, width_before);
  rsg::compact::BuilderOptions builder_options;
  builder_options.threads = options.generation_threads;
  rsg::compact::ConstraintSystemBuilder builder(rsg::compact::CompactionRules{}, builder_options);
  {
    Trace::Scope span(trace, "compact.x_pass_gen", request);
    builder.emit_batch(boxes);
  }
  try {
    Trace::Scope span(trace, "compact.x_pass_solve", request);
    rsg::compact::solve_leftmost_worklist(builder.system());
  } catch (const rsg::Error&) {
    // An infeasible axis (the layout breaks its own rules); the schedule
    // skips such passes, and the probe counts them.
    trace.count("compact.x_probe_infeasible", 1);
  }
}

std::string check_cif(Report& report, const std::string& key, const std::string& cif,
                      double* bbox_area) {
  rsg::CellTable cells;
  std::size_t boxes = 0;
  try {
    const rsg::CifReadResult read = rsg::read_cif(cif, cells);
    const rsg::Cell& top = cells.get(read.top);
    boxes = top.flattened_box_count();
    if (bbox_area != nullptr) {
      const rsg::Box box = top.bounding_box();
      *bbox_area = static_cast<double>(box.hi.x - box.lo.x) * static_cast<double>(box.hi.y - box.lo.y);
    }
  } catch (const std::exception& e) {
    report.fail(key + ": CIF does not read back: " + e.what());
  }
  return hex32(crc32(cif)) + "/" + std::to_string(boxes);
}

ItemFacts item_facts(ItemResult&& item) {
  rsg::GeneratorResult& result = item.result;
  ItemFacts facts;
  facts.top_boxes = result.top->flattened_box_count();
  facts.compacted = result.compacted;
  if (result.compacted) {
    const std::string& name = result.top->name();
    const std::string original = name.substr(0, name.size() - (sizeof(kCompactedSuffix) - 1));
    facts.boxes_kept = result.compaction.boxes.size();
    facts.boxes_before = std::as_const(item.session->cells()).get(original).flattened_box_count();
  }
  facts.cif = std::move(result.output);
  return facts;
}

std::string check_item(Report& report, const std::string& key, const ItemFacts& facts) {
  const std::string digest = check_cif(report, key, facts.cif);
  const std::string boxes = digest.substr(digest.find('/') + 1);
  if (boxes != std::to_string(facts.top_boxes)) {
    report.fail(key + ": CIF reads back " + boxes + " boxes, the layout has " +
                std::to_string(facts.top_boxes));
  }
  if (facts.compacted && facts.boxes_before != facts.boxes_kept) {
    report.fail(key + ": compaction kept " + std::to_string(facts.boxes_kept) + " of " +
                std::to_string(facts.boxes_before) + " boxes");
  }
  return digest;
}

}  // namespace perfbench
