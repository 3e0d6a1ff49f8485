// The three workloads. Each sets up (several times; the median is setup_s),
// measures for the configured seconds, then checks every output outside
// the timed region and returns a Report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string designs_dir;
  std::string trace_path;  // Chrome trace output of a traced run
};

// Times a workload's set-up. Each workload sets up once before its first
// pass and again, discarding the result, before every later pass; setup_s
// is the median. Spreading the repetitions over the run samples the host
// conditions the passes see, not just the first milliseconds of the
// process. A traced run's set-up spans go to one PassSums per repetition.
struct SetupLog {
  std::vector<double> seconds;
  std::vector<PassSums> sums;

  template <typename SetUp>
  auto run(Trace& trace, SetUp&& set_up) {
    trace.accumulate_into(&sums.emplace_back());
    const Clock::time_point start = Clock::now();
    auto state = set_up();
    seconds.push_back(ms_between(start, Clock::now()) / 1000.0);
    trace.accumulate_into(nullptr);
    return state;
  }
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  // Digest of each distinct input's output and how many operations
  // produced it; run.py compares the digests with pins.json.
  struct Output {
    std::string digest;
    std::size_t count = 0;
  };
  std::map<std::string, Output> outputs;
  // Untraced time of each operation, per input key.
  std::map<std::string, std::vector<double>> input_ms;
  Metrics metrics;
  std::string self_time_table;  // traced runs

  void fail(const std::string& message);
  // Records `digest` for `key`; a different digest for a key seen before is
  // a failure (the same input must always produce the same output).
  void record_output(const std::string& key, const std::string& digest);
};

Report run_compact_workload(const RunConfig& config);
Report run_serve_workload(const RunConfig& config);
Report run_leaf_workload(const RunConfig& config);

// Builds the input's library, ports it and returns its pin digest.
std::string port_digest(Report& report, const LeafInput& input);

// Metric helpers shared by the workloads.
void add_latency_metrics(Metrics& metrics, const std::vector<double>& latencies_ms);
// run_s: the lower quartile of the pass times, which sets aside passes
// slowed by other load on the host; requests_per_s: operations per pass
// over that time, which only restates run_s (the serve workload replaces it
// with the closed loop's own throughput).
void add_pass_metrics(Metrics& metrics, const std::vector<double>& pass_ms,
                      std::size_t operations_per_pass);
// "p<percentile> of <samples> samples" ("max of ..." below eleven samples).
std::string tail_note(int percentile, std::size_t samples);
// Median over passes of each per-pass sum, with the per-layer ratios (and
// the leaf LP's time outside the engine) derived pass by pass first.
std::map<std::string, double> layer_medians(std::vector<PassSums> passes);
// Sets every per-layer metric from `values`; those absent read 0.
void add_layer_metrics(Metrics& metrics, const std::map<std::string, double>& values);

// Runs `pass` at least once, then again while another pass of average
// length still fits in `budget_s` seconds.
template <typename Pass>
void run_passes(double budget_s, Pass&& pass) {
  const Clock::time_point start = Clock::now();
  int passes = 0;
  for (;;) {
    pass();
    ++passes;
    const double elapsed_s = ms_between(start, Clock::now()) / 1000.0;
    if (elapsed_s + elapsed_s / passes > budget_s) break;
  }
}

}  // namespace perfbench
