// E7 (Figure 5.5 vs Figure 5.6): "The layout file provides a natural means
// for the user specification of cell layouts and interfaces and greatly
// reduces the amount of redundant information needed to characterize
// regular circuit layouts. This can be appreciated by comparing Figure 5.5
// with the 6x6 systolic multiplier layout shown in Figure 5.6."
//
// Quantifies that reduction: sample-layout instances/boxes vs generated-
// layout instances/boxes for growing multiplier sizes.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "io/param_file.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"

namespace {

using namespace rsg;

void BM_InformationReduction(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  std::string params = read_text_file(designs_path("mult.par"));
  params += "\nasize = " + std::to_string(size) + "\n";
  const std::string sample = read_text_file(designs_path("mult.sample"));
  const std::string design = read_text_file(designs_path("mult.rsg"));
  double ratio = 0;
  for (auto _ : state) {
    GenerationSession session(CompiledDesign::compile(sample, design));
    const GeneratorResult result = session.generate(params);
    const double layout = static_cast<double>(result.top->flattened_instance_count());
    const double drawn = static_cast<double>(result.sample_stats.assembly_instances);
    ratio = layout / drawn;
    state.counters["sample_instances"] = drawn;
    state.counters["layout_instances"] = layout;
    state.counters["reduction_x"] = ratio;
  }
  benchmark::DoNotOptimize(ratio);
}
BENCHMARK(BM_InformationReduction)->Arg(6)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== E7 (Fig 5.5 vs 5.6): design-by-example information reduction ==\n");
  std::printf("the sample layout the user draws stays CONSTANT while the generated\n");
  std::printf("layout grows quadratically; reduction_x = layout/sample instances.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
