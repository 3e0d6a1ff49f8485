// The leaf_retarget workload: the §6.3 technology port. Each input is a
// seeded make_leaf_library library compacted by compact_leaf_schedule with
// the default LeafXyOptions — the only path into the LP engine. The 1-D
// library is used: the 2-D one can turn infeasible in round 2.
#include <cstdio>

#include "compact/synth_design.hpp"
#include "compact/xy_schedule.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rsg::compact::LeafXyResult;
using rsg::compact::SynthLeafLibrary;

LeafXyResult port(const SynthLeafLibrary& library) {
  return rsg::compact::compact_leaf_schedule(library.cells, library.interfaces,
                                             library.cell_names, library.pitch_specs,
                                             rsg::compact::CompactionRules::mosis());
}

// Replication-weighted pitch sum of `interfaces` over the library's specs.
double weighted_pitch(const SynthLeafLibrary& library, const rsg::InterfaceTable& interfaces) {
  double sum = 0.0;
  for (const rsg::compact::PitchSpec& spec : library.pitch_specs) {
    const rsg::Interface iface = interfaces.get(spec.cell_a, spec.cell_b, spec.interface_index);
    sum += spec.replication_weight * static_cast<double>(iface.vector.x);
  }
  return sum;
}

// "obj=<final objective>/pitches=<crc32 of the pitch list>/boxes=<boxes>";
// also checks that the port kept every box of every cell.
std::string check_port(Report& report, const LeafInput& input, const SynthLeafLibrary& library,
                       const LeafXyResult& result) {
  std::string pitches;
  for (const rsg::compact::PitchSpec& spec : library.pitch_specs) {
    pitches += std::to_string(
                   result.interfaces.get(spec.cell_a, spec.cell_b, spec.interface_index).vector.x) +
               ",";
  }
  std::size_t boxes = 0;
  for (const std::string& name : library.cell_names) {
    const std::size_t before = library.cells.get(name).box_count();
    const std::size_t after = result.cells.get(name).box_count();
    if (before != after) {
      report.fail(input.key + ": cell " + name + " has " + std::to_string(after) + " boxes, had " +
                  std::to_string(before));
    }
    boxes += after;
  }
  const double objective =
      result.round_stats.empty() ? 0.0 : result.round_stats.back().x_objective;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "obj=%.6f", objective);
  return std::string(buf) + "/pitches=" + hex32(crc32(pitches)) + "/boxes=" + std::to_string(boxes);
}

void count_port(Trace& trace, const LeafXyResult& result) {
  const rsg::compact::LpStats& lp = result.lp_total;
  double solve_ms = 0.0;
  for (const rsg::compact::LeafRoundStats& round : result.round_stats) {
    solve_ms += round.x_lp.wall_ms + round.x_lp.declined_wall_ms + round.y_lp.wall_ms +
                round.y_lp.declined_wall_ms;
  }
  trace.count("compact.lp_solve_ms", solve_ms);
  trace.count("compact.lp_pivots", lp.iterations + lp.declined_dual_pivots);
  trace.count("compact.lp_refactorizations", lp.refactorizations + lp.declined_refactorizations);
  trace.count("compact.lp_warm_attempted", lp.warm_attempted);
  trace.count("compact.lp_warm_accepted", lp.warm_accepted);
  trace.count("compact.lp_dual_fallbacks", lp.dual_fallbacks);
  trace.count("compact.lp_ftran_rows", static_cast<double>(lp.ftran_rows));
  trace.count("compact.lp_ftran_rows_skipped", static_cast<double>(lp.ftran_rows_skipped));
  trace.count("compact.leaf_rounds", result.rounds);
}

}  // namespace

std::string port_digest(Report& report, const LeafInput& input) {
  const SynthLeafLibrary library =
      rsg::compact::make_leaf_library(input.cells, input.boxes_per_cell, input.library_seed);
  return check_port(report, input, library, port(library));
}

Report run_leaf_workload(const RunConfig& config) {
  Report report;
  Trace trace(config.trace);

  struct State {
    std::vector<LeafInput> inputs;
    std::vector<SynthLeafLibrary> libraries;
  };
  SetupLog setup;
  const auto set_up = [&] {
    State state;
    state.inputs = leaf_inputs(config.seed);
    for (const LeafInput& input : state.inputs) {
      state.libraries.push_back(
          rsg::compact::make_leaf_library(input.cells, input.boxes_per_cell, input.library_seed));
    }
    port(rsg::compact::make_leaf_library(8, 8, 1));  // warm-up
    return state;
  };
  const State state = setup.run(trace, set_up);
  const std::vector<LeafInput>& inputs = state.inputs;
  const std::vector<SynthLeafLibrary>& libraries = state.libraries;

  std::vector<double> pass_ms;
  std::vector<double> traced_pass_ms;
  std::vector<double> latencies_ms;
  std::vector<PassSums> run_sums;
  double pitch_before = 0.0;
  double pitch_after = 0.0;
  const auto run = [&](bool traced) {
    if (traced || !pass_ms.empty()) setup.run(trace, set_up);
    if (traced) trace.accumulate_into(&run_sums.emplace_back());
    double total_ms = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ++report.attempted;
      LeafXyResult result;
      const Clock::time_point start = Clock::now();
      try {
        if (traced) {
          Trace::Scope span(trace, "compact.leaf_schedule", static_cast<long>(i));
          result = port(libraries[i]);
        } else {
          result = port(libraries[i]);
        }
      } catch (const std::exception& e) {
        report.fail(inputs[i].key + ": " + e.what());
        continue;
      }
      const double ms = ms_between(start, Clock::now());
      total_ms += ms;
      if (traced) {
        count_port(trace, result);
      } else {
        latencies_ms.push_back(ms);
        report.input_ms[inputs[i].key].push_back(ms);
        pitch_before += weighted_pitch(libraries[i], libraries[i].interfaces);
        pitch_after += weighted_pitch(libraries[i], result.interfaces);
      }
      report.record_output(inputs[i].key, check_port(report, inputs[i], libraries[i], result));
    }
    (traced ? traced_pass_ms : pass_ms).push_back(total_ms);
    trace.accumulate_into(nullptr);
  };
  run_passes(config.trace ? config.seconds * 0.45 : config.seconds, [&] { run(false); });
  const double rss_mb = peak_rss_mb();

  Metrics& m = report.metrics;
  if (!config.trace) {
    m["setup_s"] = {median(setup.seconds), "s", std::to_string(setup.seconds.size()) + " set-ups"};
    add_pass_metrics(m, pass_ms, inputs.size());
    add_latency_metrics(m, latencies_ms);
    m["peak_rss_mb"] = {rss_mb, "MB", ""};
    m["area_ratio"] = {pitch_before > 0.0 ? pitch_after / pitch_before : 1.0, "ratio", ""};
    return report;
  }

  run_passes(config.seconds * 0.45, [&] { run(true); });
  std::map<std::string, double> values = layer_medians(run_sums);
  values["trace.overhead_ratio"] = median(traced_pass_ms) / median(pass_ms) - 1.0;
  values["trace.spans"] = static_cast<double>(trace.span_count());
  add_layer_metrics(m, values);
  if (!config.trace_path.empty() && !trace.write_chrome(config.trace_path)) {
    report.fail("could not write " + config.trace_path);
  }
  report.self_time_table = trace.self_time_table();
  return report;
}

}  // namespace perfbench
