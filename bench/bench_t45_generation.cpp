// E8 (§4.5): "The execution time is divided into roughly three equal parts:
// reading in the source file and building up the initial interface table,
// parsing and executing the design and parameter file, and writing the
// output file. A 32x32 Baugh-Wooley multiplier ... is generated in 5
// seconds on a DEC-2060."
//
// Regenerates the measurement: full multiplier generation across sizes with
// the per-phase split as counters. Absolute times are ~10^4x faster on
// modern hardware; the claim under test is the SPLIT and the scaling. The
// "read" third is this bench's own timing of CompiledDesign::compile, which
// loads the sample and also parses the design file; "execute" is the
// session's parameter parse and design run (GeneratorResult::times).
//
// BM_DecoderInterpret isolates the "executing the design" third: one
// Interpreter::run of the compiled decoder program, whose top-level loops
// bind ~2^decbits * decbits indexed names in the global frame. Its
// variable_lookups counter turns the time into a cost per §4.1 lookup, which
// should stay nearly flat as the global frame grows.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>

#include "io/param_file.hpp"
#include "lang/interp.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"

namespace {

using namespace rsg;

// One multiplier generation: the compile (timed here as `read_s`), then
// one session run, whose phases the result times.
struct Generation {
  GeneratorResult result;
  double read_s = 0;
  double total() const { return read_s + result.times.total().count(); }
};

Generation generate(int size) {
  std::string params = read_text_file(designs_path("mult.par"));
  params += "\nasize = " + std::to_string(size) + "\n";
  const std::string sample = read_text_file(designs_path("mult.sample"));
  const std::string design = read_text_file(designs_path("mult.rsg"));
  Generation run;
  const auto t0 = std::chrono::steady_clock::now();
  const auto compiled = CompiledDesign::compile(sample, design);
  run.read_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  GenerationSession session(compiled);
  run.result = session.generate(params);
  return run;
}

void BM_MultiplierGeneration(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  double read_fraction = 0;
  double execute_fraction = 0;
  double compact_fraction = 0;
  double write_fraction = 0;
  for (auto _ : state) {
    const Generation run = generate(size);
    const GeneratorResult& result = run.result;
    benchmark::DoNotOptimize(result.output.data());
    const double total = run.total();
    read_fraction = run.read_s / total;
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

void BM_DecoderInterpret(benchmark::State& state) {
  const auto design = CompiledDesign::compile(read_text_file(designs_path("pla.sample")),
                                              read_text_file(designs_path("decoder.rsg")));
  const ParameterFile params = ParameterFile::parse(read_text_file(designs_path("pla.par")) +
                                                    "decbits = " +
                                                    std::to_string(state.range(0)) + "\n");
  // Each run needs fresh tables (it makes the cell "decoder"); building and
  // freeing them stays outside the timed region.
  std::unique_ptr<GenerationSession> session;
  std::unique_ptr<lang::Interpreter> interp;
  for (auto _ : state) {
    state.PauseTiming();
    interp.reset();
    session = std::make_unique<GenerationSession>(design);
    interp = std::make_unique<lang::Interpreter>(session->cells(), session->interfaces(),
                                                 session->graph());
    params.apply(*interp);
    state.ResumeTiming();
    benchmark::DoNotOptimize(interp->run(design->program()));
  }
  state.counters["variable_lookups"] = static_cast<double>(interp->stats().variable_lookups);
}
BENCHMARK(BM_DecoderInterpret)->Arg(6)->Arg(8)->Arg(10)->Unit(benchmark::kMillisecond);

void print_claim() {
  const Generation run = generate(32);
  const GeneratorResult& r32 = run.result;
  const double total = run.total();
  std::printf("== E8 (§4.5): 32x32 multiplier generation ==\n");
  std::printf("paper: 5 s on a DEC-2060, split ~1/3 read, ~1/3 execute, ~1/3 write\n");
  std::printf(
      "here:  %.4f s total; split %.0f%% read (compile) / %.0f%% execute / %.0f%% compact / "
      "%.0f%% write\n",
      total, 100 * run.read_s / total, 100 * r32.times.execute_design.count() / total,
      100 * r32.times.compact.count() / total, 100 * r32.times.write_output.count() / total);
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
