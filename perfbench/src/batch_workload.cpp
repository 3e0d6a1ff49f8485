// The compact workload: a fixed list of inputs, generated and compacted one
// after another through GenerationSession::generate, pass after pass.
#include "pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// CLI-style requests: compaction comes from the `.compact:xy` parameter
// line with the production defaults.
constexpr bool kDirective = true;

}  // namespace

Report run_compact_workload(const RunConfig& config) {
  Report report;
  Trace trace(config.trace);
  const rsg::CompactionRequest defaults;

  struct State {
    DesignSet files;
    std::vector<Input> inputs;
    CompiledSet compiled;
  };
  SetupLog setup;
  const auto set_up = [&] {
    State state;
    state.files = load_designs(config.designs_dir);
    state.inputs = compact_inputs(config.seed);
    state.compiled = compile_designs(state.files, trace);
    for (const Input& input : warmup_inputs()) {
      run_session(state.compiled, state.files, input, defaults, kDirective);
    }
    return state;
  };
  const State state = setup.run(trace, set_up);
  const DesignSet& files = state.files;
  const std::vector<Input>& inputs = state.inputs;
  const CompiledSet& compiled = state.compiled;

  // The first output of each key is kept for the structural checks, which
  // run after the measured passes and after peak RSS is read. Later outputs
  // of the key must have its CRC; in traced runs the staged pipeline's CIF
  // must equal it byte for byte (faithfulness).
  struct KeyOutputs {
    ItemFacts first;
    std::uint32_t crc = 0;
    std::size_t count = 0;
  };
  std::map<std::string, KeyOutputs> outputs;

  // Untraced passes through the product path.
  std::vector<double> pass_ms;
  std::vector<double> latencies_ms;
  double area_before = 0.0;
  double area_after = 0.0;
  const double untraced_budget = config.trace ? config.seconds * 0.45 : config.seconds;
  run_passes(untraced_budget, [&] {
    if (!pass_ms.empty()) setup.run(trace, set_up);
    double total_ms = 0.0;
    for (const Input& input : inputs) {
      ++report.attempted;
      ItemResult item;
      const Clock::time_point start = Clock::now();
      try {
        item = run_session(compiled, files, input, defaults, kDirective);
      } catch (const std::exception& e) {
        report.fail(input.key + ": " + e.what());
        continue;
      }
      const double ms = ms_between(start, Clock::now());
      total_ms += ms;
      latencies_ms.push_back(ms);
      report.input_ms[input.key].push_back(ms);
      const rsg::compact::XyScheduleResult& c = item.result.compaction;
      if (item.result.compacted) {
        area_before += static_cast<double>(c.width_before) * static_cast<double>(c.height_before);
        area_after += static_cast<double>(c.width_after) * static_cast<double>(c.height_after);
      }
      const std::uint32_t crc = crc32(item.result.output);
      KeyOutputs& out = outputs[input.key];
      if (out.count++ == 0) {
        out.crc = crc;
        out.first = item_facts(std::move(item));
      } else if (crc != out.crc) {
        report.fail(input.key + ": output changed between runs of the same input (" +
                    hex32(out.crc) + " then " + hex32(crc) + ")");
      }
    }
    pass_ms.push_back(total_ms);
  });
  const double rss_mb = peak_rss_mb();

  // Traced passes through the staged pipeline.
  std::vector<double> traced_pass_ms;
  std::vector<PassSums> run_sums;
  long request = 0;
  if (config.trace) {
    run_passes(config.seconds * 0.45, [&] {
      setup.run(trace, set_up);
      trace.accumulate_into(&run_sums.emplace_back());
      double total_ms = 0.0;
      for (const Input& input : inputs) {
        ++report.attempted;
        ItemResult item;
        const Clock::time_point start = Clock::now();
        try {
          item = run_staged(compiled, files, input, defaults, kDirective, trace, request);
        } catch (const std::exception& e) {
          report.fail(input.key + ": " + e.what());
          continue;
        }
        total_ms += ms_between(start, Clock::now());
        count_item(trace, item);
        if (!item.flat.empty()) probe_x_pass(trace, item.flat, request);
        ++request;
        const auto ref = outputs.find(input.key);
        if (ref == outputs.end() || ref->second.first.cif != item.result.output) {
          report.fail(input.key + ": staged pipeline CIF differs from GenerationSession::generate");
        } else {
          ++ref->second.count;
        }
      }
      traced_pass_ms.push_back(total_ms);
      trace.accumulate_into(nullptr);
    });
  }

  for (const auto& [key, out] : outputs) {
    Report::Output& output = report.outputs[key];
    output.digest = check_item(report, key, out.first);
    output.count = out.count;
  }

  Metrics& m = report.metrics;
  if (!config.trace) {
    m["setup_s"] = {median(setup.seconds), "s", std::to_string(setup.seconds.size()) + " set-ups"};
    add_pass_metrics(m, pass_ms, inputs.size());
    add_latency_metrics(m, latencies_ms);
    m["peak_rss_mb"] = {rss_mb, "MB", ""};
    m["area_ratio"] = {area_before > 0.0 ? area_after / area_before : 1.0, "ratio", ""};
    return report;
  }

  std::map<std::string, double> values = layer_medians(run_sums);
  const std::map<std::string, double> setup_values = layer_medians(setup.sums);
  values.insert(setup_values.begin(), setup_values.end());  // set-up-only keys
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
