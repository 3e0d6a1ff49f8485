// rsg_cli — the RSG as a command-line tool, mirroring how the original ran
// on the DEC-2060: three input files in, one layout file out. A second mode
// skips generation entirely and re-emits a previously saved RSGB binary
// snapshot (docs/formats/RSGB.md) in any of the text formats.
//
// Generation compiles the sample (text or CIF) and the design once, then
// runs one rsg::GenerationSession per run (per line with --params-sweep).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "io/cif_writer.hpp"
#include "io/def_writer.hpp"
#include "io/param_file.hpp"
#include "io/snapshot.hpp"
#include "io/svg_writer.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"

namespace {

const char kUsage[] =
    "usage: rsg_cli <sample> <design> <params> [options]\n"
    "       rsg_cli --snapshot-in <file.rsgb> [options]\n"
    "\n"
    "inputs (generation mode):\n"
    "  <sample>            sample layout: text format or CIF, detected by content\n"
    "  <design>            design file (procedural description)\n"
    "  <params>            parameter file; directives:\n"
    "                        .top_cell:<name>      pick the output cell\n"
    "                        .compact:xy           post-generation x/y compaction\n"
    "                                              (flat alternating-axis schedule: scanline\n"
    "                                              constraints, worklist longest path)\n"
    "\n"
    "inputs (snapshot mode):\n"
    "  --snapshot-in <f>   skip generation; load an RSGB binary snapshot instead.\n"
    "                      Takes no --params-sweep, --checkpoint-* or --compact-stats\n"
    "\n"
    "outputs:\n"
    "  -o <file.cif>       write CIF to a file (default: CIF on stdout); streamed\n"
    "                      through a bounded buffer, not materialized\n"
    "  --svg <file.svg>    write an SVG rendering of the top cell\n"
    "  --def <file.def>    write the flat, sorted DEF box dump\n"
    "  --snapshot-out <f>  write an RSGB binary snapshot of the whole cell table\n"
    "                      rooted at the top cell (spec: docs/formats/RSGB.md)\n"
    "\n"
    "options:\n"
    "  --top <name>        override the top cell choice\n"
    "  --params-sweep <f>  run the design once per line of <f>: each non-comment\n"
    "                      line is appended to <params> as an overriding assignment\n"
    "                      (later assignments win). The design is compiled ONCE and\n"
    "                      each run is a fresh generation session over the shared\n"
    "                      compiled base. With -o out.cif, run k writes out.k.cif;\n"
    "                      without -o, a per-run summary is printed instead of CIF.\n"
    "                      Takes no --svg, --def, --snapshot-out or --checkpoint-*\n"
    "  --stats             print pipeline statistics to stderr\n"
    "  --compact-stats     print per-round compaction telemetry to stderr: extent\n"
    "                      deltas, constraint reuse, solver pops, x/y warm starts\n"
    "  --checkpoint-out <f>  rewrite an RSGC checkpoint of the compaction schedule\n"
    "                      after every completed round (resume with --checkpoint-in)\n"
    "  --checkpoint-in <f>   resume the compaction schedule from an RSGC checkpoint;\n"
    "                      the result is bit-for-bit the uninterrupted run's\n"
    "  -h, --help          show this help\n";

struct Options {
  std::vector<std::string> inputs;
  std::string snapshot_in;
  std::string snapshot_out;
  std::string out_cif;
  std::string out_svg;
  std::string out_def;
  std::string top;
  std::string params_sweep;
  std::string checkpoint_in;
  std::string checkpoint_out;
  bool stats = false;
  bool compact_stats = false;
};

// `max_rounds` is the round cap of the schedule options the run passed.
void print_compact_stats(const rsg::GeneratorResult& result, int max_rounds) {
  using rsg::compact::RoundStats;
  if (!result.compacted) {
    std::cerr << "compaction:     not run (enable with the .compact:xy directive)\n";
    return;
  }
  const rsg::compact::XyScheduleResult& c = result.compaction;
  std::fprintf(stderr,
               "compaction:     %d/%d round%s, %s; width %lld -> %lld, height %lld -> %lld\n",
               c.rounds, max_rounds, c.rounds == 1 ? "" : "s",
               c.converged ? "converged" : "capped (geometry still moving)",
               static_cast<long long>(c.width_before), static_cast<long long>(c.width_after),
               static_cast<long long>(c.height_before), static_cast<long long>(c.height_after));
  if (c.x_infeasible || c.y_infeasible) {
    std::fprintf(stderr, "                best-effort skips:%s%s\n",
                 c.x_infeasible ? " x" : "", c.y_infeasible ? " y" : "");
  }
  std::fprintf(stderr, "  %-6s %-6s %-6s %-12s %-8s %-9s %-6s %-8s %-8s\n", "round", "dW", "dH",
               "constraints", "reused", "pops", "warm", "skipped", "ms");
  for (const RoundStats& r : c.round_stats) {
    const std::size_t discovered = r.partners_reswept + r.partners_reused;
    char reused[16];
    std::snprintf(reused, sizeof reused, "%.0f%%",
                  discovered > 0
                      ? 100.0 * static_cast<double>(r.partners_reused) /
                            static_cast<double>(discovered)
                      : 0.0);
    char warm[8];
    std::snprintf(warm, sizeof warm, "%c/%c", r.warm_x ? 'x' : '-', r.warm_y ? 'y' : '-');
    char skipped[8];
    std::snprintf(skipped, sizeof skipped, "%s%s", r.x_skipped ? "x" : "",
                  r.y_skipped ? "y" : "");
    std::fprintf(stderr, "  %-6d %-6lld %-6lld %-12zu %-8s %-9zu %-6s %-8s %-8.2f\n", r.round,
                 static_cast<long long>(r.width_delta), static_cast<long long>(r.height_delta),
                 r.constraints_emitted, reused, r.solve_pops, warm,
                 skipped[0] != '\0' ? skipped : "-", r.wall_ms);
  }
}

int usage() {
  std::cerr << kUsage;
  return 2;
}

// Writes the requested outputs of `top`; --snapshot-out saves all of
// `cells`. File outputs stream through the bounded writers; only the
// stdout path materializes the CIF text.
void write_outputs(const Options& o, const rsg::Cell& top, const rsg::CellTable& cells) {
  if (!o.out_cif.empty()) {
    rsg::write_cif_file(o.out_cif, top);
    std::cout << "wrote " << o.out_cif << "\n";
  } else if (o.out_svg.empty() && o.out_def.empty() && o.snapshot_out.empty()) {
    rsg::write_cif(std::cout, top);
  }
  if (!o.out_svg.empty()) {
    rsg::write_svg_file(o.out_svg, top);
    std::cout << "wrote " << o.out_svg << "\n";
  }
  if (!o.out_def.empty()) {
    rsg::write_def_file(o.out_def, top);
    std::cout << "wrote " << o.out_def << "\n";
  }
  if (!o.snapshot_out.empty()) {
    const rsg::SnapshotWriteStats written =
        rsg::write_snapshot_file(o.snapshot_out, cells, top.name());
    std::cout << "wrote " << o.snapshot_out << " (" << written.file_bytes << " bytes)\n";
  }
}

void print_layout_stats(const rsg::Cell& top) {
  std::cerr << "top cell:       " << top.name() << "\n";
  std::cerr << "flat instances: " << top.flattened_instance_count() << "\n";
  std::cerr << "flat boxes:     " << top.flattened_box_count() << "\n";
  std::cerr << "bounding box:   " << top.bounding_box() << "\n";
}

void run_snapshot(const Options& o) {
  rsg::CellTable cells;
  const rsg::SnapshotReadResult loaded = rsg::read_snapshot_file(o.snapshot_in, cells);
  std::string top_name = o.top.empty() ? loaded.root : o.top;
  if (top_name.empty()) {
    if (cells.names_in_order().empty()) throw rsg::Error("snapshot contains no cells");
    top_name = cells.names_in_order().back();
  }
  const rsg::Cell& top = cells.get(top_name);
  write_outputs(o, top, cells);
  if (o.stats) {
    std::cerr << "snapshot:       " << loaded.cells << " cells, " << loaded.boxes << " boxes, "
              << loaded.instances << " instances\n";
    print_layout_stats(top);
  }
}

void run_generation(const Options& o) {
  const std::string sample = rsg::read_text_file(o.inputs[0]);
  const std::string design = rsg::read_text_file(o.inputs[1]);
  const std::string params = rsg::read_text_file(o.inputs[2]);
  const auto t0 = std::chrono::steady_clock::now();
  const auto compiled = rsg::CompiledDesign::compile(sample, design);
  const std::chrono::duration<double> compile_time = std::chrono::steady_clock::now() - t0;
  // Compaction options ride along even while enabled stays false — the
  // `.compact:xy` directive flips the switch inside the pipeline.
  rsg::CompactionRequest compaction;
  compaction.checkpoint_in = o.checkpoint_in;
  compaction.checkpoint_out = o.checkpoint_out;

  if (o.params_sweep.empty()) {
    rsg::GenerationSession session(compiled);
    session.set_compaction(compaction);
    const rsg::GeneratorResult result = session.generate(params, o.top);
    // The session's table: the compiled sample cells, then the generated ones.
    write_outputs(o, *result.top, session.cells());
    if (o.compact_stats) print_compact_stats(result, compaction.schedule.max_rounds);
    if (o.stats) {
      print_layout_stats(*result.top);
      std::cerr << "phases (s):     compile " << compile_time.count() << " / execute design "
                << result.times.execute_design.count() << " / compact "
                << result.times.compact.count() << " / write output "
                << result.times.write_output.count() << "\n";
    }
    return;
  }

  // Sweep: one fresh session per non-comment line of the sweep file.
  std::ifstream sweep(o.params_sweep);
  if (!sweep) throw rsg::Error("cannot read sweep file '" + o.params_sweep + "'");
  std::string line;
  int run = 0;
  while (std::getline(sweep, line)) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == ';' || line[first] == '#') continue;
    ++run;
    rsg::GenerationSession session(compiled);
    session.set_compaction(compaction);
    const rsg::GeneratorResult result = session.generate(params + "\n" + line + "\n", o.top);
    if (!o.out_cif.empty()) {
      // out.cif -> out.<run>.cif
      std::string path = o.out_cif;
      const std::size_t dot = path.rfind('.');
      path.insert(dot == std::string::npos ? path.size() : dot, "." + std::to_string(run));
      rsg::write_cif_file(path, *result.top);
      std::cout << "wrote " << path << "\n";
    } else {
      std::cout << "run " << run << ": " << line.substr(first) << " -> " << result.top->name()
                << ", " << result.top->flattened_box_count() << " boxes, bbox "
                << result.top->bounding_box() << "\n";
    }
    if (o.compact_stats) print_compact_stats(result, compaction.schedule.max_rounds);
  }
  if (run == 0) throw rsg::Error("sweep file '" + o.params_sweep + "' has no runs");
  if (o.stats) std::cerr << "sweep:          " << run << " runs, compiled once\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  const std::pair<const char*, std::string*> valued[] = {
      {"-o", &o.out_cif},
      {"--svg", &o.out_svg},
      {"--def", &o.out_def},
      {"--snapshot-in", &o.snapshot_in},
      {"--snapshot-out", &o.snapshot_out},
      {"--top", &o.top},
      {"--params-sweep", &o.params_sweep},
      {"--checkpoint-in", &o.checkpoint_in},
      {"--checkpoint-out", &o.checkpoint_out},
  };
  std::set<std::string> given;  // every flag on the command line
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    const auto flag = std::find_if(std::begin(valued), std::end(valued),
                                   [&](const auto& v) { return arg == v.first; });
    if (flag != std::end(valued)) {
      if (i + 1 >= argc) {
        std::cerr << "rsg_cli: " << arg << " needs a value\n";
        return 2;
      }
      *flag->second = argv[++i];
    } else if (arg == "--stats") {
      o.stats = true;
    } else if (arg == "--compact-stats") {
      o.compact_stats = true;
    } else if (arg.size() > 1 && arg[0] == '-') {
      return usage();
    } else {
      o.inputs.push_back(arg);
      continue;
    }
    given.insert(arg);
  }
  const bool snapshot_mode = !o.snapshot_in.empty();
  if (snapshot_mode ? !o.inputs.empty() : o.inputs.size() != 3) return usage();
  // Each mode refuses the flags it would otherwise drop without a word.
  const auto refuses = [&](const char* mode, std::initializer_list<const char*> ignored) {
    for (const char* flag : ignored) {
      if (given.count(flag) == 0) continue;
      std::cerr << "rsg_cli: " << mode << " does not take " << flag << "\n";
      return true;
    }
    return false;
  };
  if (snapshot_mode && refuses("--snapshot-in", {"--params-sweep", "--checkpoint-in",
                                                 "--checkpoint-out", "--compact-stats"})) {
    return 2;
  }
  if (!o.params_sweep.empty() &&
      refuses("--params-sweep",
              {"--svg", "--def", "--snapshot-out", "--checkpoint-in", "--checkpoint-out"})) {
    return 2;
  }

  try {
    if (snapshot_mode) {
      run_snapshot(o);
    } else {
      run_generation(o);
    }
  } catch (const std::exception& e) {
    std::cerr << "rsg_cli: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
