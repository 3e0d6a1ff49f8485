// rsg_perfbench: runs one workload of the end-to-end benchmark and prints
// its report as one JSON line. perfbench/run.py builds and drives it; run
// it directly as
//
//   rsg_perfbench --workload compact|serve|leaf_retarget
//                 --seed N --seconds S --trace 0|1 --designs DIR
//                 [--trace-out FILE]
//   rsg_perfbench --pins --designs DIR     (digests of every pinned input)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "pipeline.hpp"
#include "rsg/pipeline.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void print_report(const Report& report) {
  std::string out = "{\"attempted\":" + std::to_string(report.attempted) +
                    ",\"failed\":" + std::to_string(report.failed) + ",\"failures\":[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + json_escape(report.failures[i]) + "\"";
  }
  out += "],\"outputs\":{";
  bool first = true;
  for (const auto& [key, output] : report.outputs) {
    out += (first ? "\"" : ",\"") + json_escape(key) + "\":{\"digest\":\"" +
           json_escape(output.digest) + "\",\"count\":" + std::to_string(output.count) + "}";
    first = false;
  }
  out += "},\"input_ms\":{";
  first = true;
  for (const auto& [key, times] : report.input_ms) {
    out += (first ? "\"" : ",\"") + json_escape(key) + "\":[" + number(quantile(times,0)) + "," + number(median(times)) + "," + number(quantile(times,1)) + "]";
    first = false;
  }
  out += "},\"metrics\":{";
  first = true;
  for (const auto& [name, metric] : report.metrics) {
    out += (first ? "\"" : ",\"") + json_escape(name) + "\":{\"value\":" + number(metric.value) +
           ",\"unit\":\"" + json_escape(metric.unit) + "\",\"note\":\"" + json_escape(metric.note) +
           "\"}";
    first = false;
  }
  out += "},\"self_time_table\":\"" + json_escape(report.self_time_table) + "\"}";
  std::cout << out << std::endl;
}

int print_pins(const std::string& designs_dir) {
  const DesignSet files = load_designs(designs_dir);
  Trace off(false);
  const CompiledSet compiled = compile_designs(files, off);
  Report report;
  std::string out = "{";
  const auto add = [&](const std::string& key, const std::string& digest) {
    out += (out.size() == 1 ? "\n  \"" : ",\n  \"") + json_escape(key) + "\": \"" + digest + "\"";
  };
  for (const Input& input : all_pinned_inputs()) {
    add(input.key, check_item(report, input.key,
                              item_facts(run_session(compiled, files, input,
                                                     rsg::CompactionRequest{}, true))));
  }
  for (const LeafInput& input : all_pinned_leaf_inputs()) add(input.key, port_digest(report, input));
  std::cout << out << "\n}\n";
  for (const std::string& failure : report.failures) std::cerr << "check failed: " << failure << "\n";
  return report.failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "rsg_perfbench: " << why << "\n"
            << "usage: rsg_perfbench --workload W --seed N --seconds S --trace 0|1 --designs DIR"
               " [--trace-out FILE]\n       rsg_perfbench --pins --designs DIR\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool pins = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--pins") {
      pins = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--designs") {
      config.designs_dir = value;
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.designs_dir.empty()) usage("--designs is required");
  try {
    if (pins) return print_pins(config.designs_dir);
    if (!(config.seconds > 0.0)) usage("--seconds must be positive");
    Report report;
    if (config.workload == "compact") {
      report = run_compact_workload(config);
    } else if (config.workload == "serve") {
      report = run_serve_workload(config);
    } else if (config.workload == "leaf_retarget") {
      report = run_leaf_workload(config);
    } else {
      usage(("unknown workload '" + config.workload + "'").c_str());
    }
    print_report(report);
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "rsg_perfbench: " << e.what() << "\n";
    return 1;
  }
}
