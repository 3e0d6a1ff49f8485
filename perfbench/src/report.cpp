#include <utility>

#include "workloads.hpp"

namespace perfbench {

namespace {

// Every per-layer metric, with its unit. A traced run reports all of them;
// a layer the workload does not reach reads 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"io.sample_load_ms", "ms"},
    {"io.param_parse_ms", "ms"},
    {"io.cif_render_ms", "ms"},
    {"io.cif_bytes", "bytes"},
    {"lang.parse_ms", "ms"},
    {"lang.interp_ms", "ms"},
    {"lang.procedure_calls", "count"},
    {"lang.variable_lookups", "count"},
    {"lang.frames_created", "count"},
    {"lang.cells_made", "count"},
    {"iface.interface_lookups", "count"},
    {"layout.flatten_ms", "ms"},
    {"layout.flat_boxes", "count"},
    {"compact.schedule_ms", "ms"},
    {"compact.rounds", "count"},
    {"compact.round1_ms", "ms"},
    {"compact.post_round_ms", "ms"},
    {"compact.constraints", "count"},
    {"compact.partner_reuse_ratio", "ratio"},
    {"compact.solve_pops", "count"},
    {"compact.warm_accept_ratio", "ratio"},
    {"compact.skipped_passes", "count"},
    {"compact.skipped_round_ms", "ms"},
    {"compact.x_pass_gen_ms", "ms"},
    {"compact.x_pass_solve_ms", "ms"},
    {"compact.lp_build_ms", "ms"},
    {"compact.lp_solve_ms", "ms"},
    {"compact.lp_pivots", "count"},
    {"compact.lp_refactorizations", "count"},
    {"compact.lp_warm_accept_ratio", "ratio"},
    {"compact.lp_dual_fallbacks", "count"},
    {"compact.lp_ftran_skip_ratio", "ratio"},
    {"compact.leaf_rounds", "count"},
    {"rsg.compile_ms", "ms"},
    {"rsg.generate_ms", "ms"},
    {"rsg.queue_wait_ms_p50", "ms"},
    {"rsg.queue_wait_ms_tail", "ms"},
    {"rsg.cache_hit_ratio", "ratio"},
    {"rsg.worker_busy_ratio", "ratio"},
    {"rsg.shed", "count"},
    {"pla.encode_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

double ratio(const PassSums& pass, const char* numerator, const char* denominator) {
  const auto num = pass.find(numerator);
  const auto den = pass.find(denominator);
  if (num == pass.end() || den == pass.end() || den->second <= 0.0) return 0.0;
  return num->second / den->second;
}

}  // namespace

std::string tail_note(int percentile, std::size_t samples) {
  return (percentile > 0 ? "p" + std::to_string(percentile) : std::string("max")) + " of " +
         std::to_string(samples) + " samples";
}

void Report::fail(const std::string& message) {
  ++failed;
  failures.push_back(message);
}

void Report::record_output(const std::string& key, const std::string& digest) {
  Output& output = outputs[key];
  if (output.count > 0 && output.digest != digest) {
    fail(key + ": output changed between runs of the same input (" + output.digest + " then " +
         digest + ")");
  }
  if (output.count == 0) output.digest = digest;
  ++output.count;
}

void add_latency_metrics(Metrics& metrics, const std::vector<double>& latencies_ms) {
  int percentile = 0;
  const double tail = tail_with_ten_beyond(latencies_ms, percentile);
  metrics["latency_ms_p50"] = {median(latencies_ms), "ms", ""};
  metrics["latency_ms_tail"] = {tail, "ms", tail_note(percentile, latencies_ms.size())};
}

void add_pass_metrics(Metrics& metrics, const std::vector<double>& pass_ms,
                      std::size_t operations_per_pass) {
  const double run_ms = quantile(pass_ms, 0.25);
  metrics["run_s"] = {run_ms / 1000.0, "s",
                      "lower quartile of " + std::to_string(pass_ms.size()) + " passes of " +
                          std::to_string(operations_per_pass)};
  metrics["requests_per_s"] = {
      run_ms > 0.0 ? 1000.0 * static_cast<double>(operations_per_pass) / run_ms : 0.0, "1/s", ""};
}

std::map<std::string, double> layer_medians(std::vector<PassSums> passes) {
  for (PassSums& pass : passes) {
    pass["compact.partners_total"] =
        pass["compact.partners_reused"] + pass["compact.partners_reswept"];
    pass["compact.partner_reuse_ratio"] =
        ratio(pass, "compact.partners_reused", "compact.partners_total");
    pass["compact.warm_accept_ratio"] = ratio(pass, "compact.warm_accepts", "compact.warm_attempts");
    pass["compact.lp_warm_accept_ratio"] =
        ratio(pass, "compact.lp_warm_accepted", "compact.lp_warm_attempted");
    pass["compact.lp_ftran_skip_ratio"] =
        ratio(pass, "compact.lp_ftran_rows_skipped", "compact.lp_ftran_rows");
    if (pass.count("compact.leaf_schedule_ms") > 0) {
      pass["compact.lp_build_ms"] = pass["compact.leaf_schedule_ms"] - pass["compact.lp_solve_ms"];
    }
  }
  return pass_medians(passes);
}

void add_layer_metrics(Metrics& metrics, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    metrics[name] = {it == values.end() ? 0.0 : it->second, unit, ""};
  }
}

}  // namespace perfbench
