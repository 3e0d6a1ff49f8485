// E8 (§4.5): "The execution time is divided into roughly three equal parts:
// reading in the source file and building up the initial interface table,
// parsing and executing the design and parameter file, and writing the
// output file. A 32x32 Baugh-Wooley multiplier ... is generated in 5
// seconds on a DEC-2060."
//
// Regenerates the measurement: full multiplier generation across sizes with
// the per-phase split as counters. Absolute times are ~10^4x faster on
// modern hardware; the claim under test is the SPLIT and the scaling.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "io/param_file.hpp"
#include "rsg/generator.hpp"

namespace {

using namespace rsg;

// `generator` must outlive the result: result.top points into its cell
// table.
GeneratorResult generate(Generator& generator, int size) {
  std::string params = read_text_file(designs_path("mult.par"));
  params += "\nasize = " + std::to_string(size) + "\n";
  return generator.run(read_text_file(designs_path("mult.sample")),
                       read_text_file(designs_path("mult.rsg")), params);
}

void BM_MultiplierGeneration(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  double read_fraction = 0;
  double execute_fraction = 0;
  double compact_fraction = 0;
  double write_fraction = 0;
  for (auto _ : state) {
    Generator generator;
    const GeneratorResult result = generate(generator, size);
    benchmark::DoNotOptimize(result.output.data());
    const double total = result.times.total().count();
    read_fraction = result.times.read_sample.count() / total;
    execute_fraction = result.times.execute_design.count() / total;
    compact_fraction = result.times.compact.count() / total;
    write_fraction = result.times.write_output.count() / total;
  }
  state.counters["frac_read_sample"] = read_fraction;
  state.counters["frac_execute"] = execute_fraction;
  state.counters["frac_compact"] = compact_fraction;
  state.counters["frac_write"] = write_fraction;
}
BENCHMARK(BM_MultiplierGeneration)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void print_claim() {
  Generator generator;
  const GeneratorResult r32 = generate(generator, 32);
  const double total = r32.times.total().count();
  std::printf("== E8 (§4.5): 32x32 multiplier generation ==\n");
  std::printf("paper: 5 s on a DEC-2060, split ~1/3 read, ~1/3 execute, ~1/3 write\n");
  std::printf(
      "here:  %.4f s total; split %.0f%% read sample / %.0f%% execute / %.0f%% compact / "
      "%.0f%% write\n",
      total, 100 * r32.times.read_sample.count() / total,
      100 * r32.times.execute_design.count() / total, 100 * r32.times.compact.count() / total,
      100 * r32.times.write_output.count() / total);
  std::printf("layout: %zu flat instances, %zu flat boxes\n\n",
              r32.top->flattened_instance_count(), r32.top->flattened_box_count());
}

}  // namespace

int main(int argc, char** argv) {
  print_claim();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
