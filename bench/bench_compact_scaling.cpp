// The compaction hot path at scale (§6.4): constraint generation plus
// longest-path solving on synthetic RAM-style grids of 1k/10k/50k boxes.
//
// Three configurations sweep each size:
//   naive     the §6.4.1 overconstraining pairwise generator (O(n^2) pairs)
//             plus the pass-based Bellman–Ford solver
//   scanline  the visibility scan-line generator (blocked segment profile,
//             nets from its partner lists) plus the pass-based solver
//   worklist  compact_flat as production runs it: the scan-line generator
//             plus the worklist solver
// The naive generator and the pass-based solver are test-only oracle code
// (tests/oracle), so the first two rows build the system by hand and call
// oracle::solve_leftmost. The scanline and worklist rows solve the same
// system and report the same width_after; the naive generator
// overconstrains, so its width is larger.
//
// A fourth row, shuffled_column, times the scan-line generator alone on the
// visibility profile's worst insertion order: a one-layer column listed in
// random order (make_shuffled_column_field), whose profile grows to one
// segment per box with every insert at a random place. Its time per box
// must stay nearly flat from 1k to 50k boxes.
//
// CI runs the 1k/10k sizes via scripts/bench_smoke.sh and uploads the JSON
// as BENCH_compact_scaling.json; run the binary with no filter for the
// full 1k/10k/50k trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "compact/flat_compactor.hpp"
#include "compact/synth_design.hpp"
#include "oracle/pass_based_solvers.hpp"
#include "oracle/reference_generators.hpp"

namespace {

using namespace rsg::compact;

// Lazy per size: a filtered run (CI smoke) must not pay for the fields it
// never touches.
const SynthField& field_of_size(int boxes) {
  if (boxes <= 1000) {
    static const SynthField field = make_grid_field_of_size(1000);
    return field;
  }
  if (boxes <= 10000) {
    static const SynthField field = make_grid_field_of_size(10000);
    return field;
  }
  static const SynthField field = make_grid_field_of_size(50000);
  return field;
}

struct ModeResult {
  std::size_t constraints = 0;
  rsg::Coord width_after = 0;
};

// The naive and scanline rows: compact_flat's pass with the pass-based
// solver in place of the worklist one.
ModeResult compact_pass_based(const SynthField& field, bool naive) {
  rsg::Coord width_before = 0;
  std::vector<CompactionBox> cboxes =
      normalized_compaction_boxes(field.boxes, {}, field.stretchable, width_before);
  ConstraintSystem system;
  add_box_variables(system, cboxes);
  if (naive) {
    oracle::generate_constraints_naive(system, cboxes, CompactionRules::mosis());
  } else {
    generate_constraints(system, cboxes, CompactionRules::mosis(), /*threads=*/0);
  }
  oracle::solve_leftmost(system);
  ModeResult result;
  result.constraints = system.constraint_count();
  for (const CompactionBox& cb : cboxes) {
    result.width_after =
        std::max(result.width_after, system.values[static_cast<std::size_t>(cb.right_var)]);
  }
  return result;
}

ModeResult compact_mode(const SynthField& field, const char* mode) {
  if (mode[0] != 'w') return compact_pass_based(field, /*naive=*/mode[0] == 'n');
  const FlatResult flat =
      compact_flat(field.boxes, CompactionRules::mosis(), {}, field.stretchable);
  return {flat.constraint_count, flat.width_after};
}

void run_mode(benchmark::State& state, const char* mode) {
  const SynthField& field = field_of_size(static_cast<int>(state.range(0)));
  ModeResult result;
  for (auto _ : state) {
    result = compact_mode(field, mode);
    benchmark::DoNotOptimize(result.width_after);
  }
  state.counters["boxes"] = static_cast<double>(field.boxes.size());
  state.counters["constraints"] = static_cast<double>(result.constraints);
  state.counters["width_after"] = static_cast<double>(result.width_after);
}

void BM_CompactNaive(benchmark::State& state) { run_mode(state, "naive"); }
void BM_CompactScanline(benchmark::State& state) { run_mode(state, "scanline"); }
void BM_CompactWorklist(benchmark::State& state) { run_mode(state, "worklist"); }

const SynthField& shuffled_column_of_size(int boxes) {
  if (boxes <= 1000) {
    static const SynthField field = make_shuffled_column_field(1000, 1);
    return field;
  }
  if (boxes <= 10000) {
    static const SynthField field = make_shuffled_column_field(10000, 1);
    return field;
  }
  static const SynthField field = make_shuffled_column_field(50000, 1);
  return field;
}

void BM_CompactShuffledColumn(benchmark::State& state) {
  const SynthField& field = shuffled_column_of_size(static_cast<int>(state.range(0)));
  std::vector<CompactionBox> boxes(field.boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i) boxes[i].geometry = field.boxes[i];
  ConstraintSystem system;
  add_box_variables(system, boxes);
  std::size_t constraints = 0;
  for (auto _ : state) {
    system.truncate_constraints(0);
    generate_constraints(system, boxes, CompactionRules::mosis());
    constraints = system.constraint_count();
    benchmark::DoNotOptimize(constraints);
  }
  state.counters["boxes"] = static_cast<double>(field.boxes.size());
  state.counters["constraints"] = static_cast<double>(constraints);
}

BENCHMARK(BM_CompactNaive)->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompactScanline)->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompactWorklist)->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompactShuffledColumn)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

double time_once(int boxes, const char* mode) {
  const SynthField& field = field_of_size(boxes);
  const auto start = std::chrono::steady_clock::now();
  const ModeResult result = compact_mode(field, mode);
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(result.width_after);
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void print_scaling_table() {
  std::printf("== compaction hot path at scale (§6.4) ==\n");
  std::printf("%-8s %-14s %-14s %-14s %-10s\n", "boxes", "naive(ms)", "scanline(ms)",
              "worklist(ms)", "speedup");
  for (const int n : {1000, 10000}) {
    const double naive = time_once(n, "naive");
    const double scan = time_once(n, "scanline");
    const double work = time_once(n, "worklist");
    std::printf("%-8zu %-14.2f %-14.2f %-14.2f %-10.1f\n", field_of_size(n).boxes.size(), naive,
                scan, work, naive / work);
  }
  std::printf("speedup = naive / (scanline generation + worklist solve); the\n");
  std::printf("acceptance bar is >= 10x at the 10k size. 50k sizes run under\n");
  std::printf("the registered benchmarks below (or --benchmark_filter=/50000).\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The summary table costs unfiltered full runs (the naive 10k case is
  // ~1/3 s), so only print it for a bare invocation — filtered CI smoke
  // runs and --benchmark_list_tests skip straight to the harness.
  if (argc == 1) print_scaling_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
