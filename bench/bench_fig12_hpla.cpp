// E10 + E11 (§1.2.2, Figure 1.2): the RSG against the HPLA baseline.
//
//  * generality: one RSG framework generates multiple architectures (PLA,
//    decoder, array multiplier) while HPLA generates exactly one;
//  * sample size: HPLA requires a fully assembled 2x2x2 PLA; the RSG a
//    handful of example instances;
//  * relocation cost: HPLA clones cell definitions per generation run;
//  * generation speed on the same PLA personality.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "hpla/hpla.hpp"
#include "io/param_file.hpp"
#include "pla/pla_builder.hpp"

namespace {

using namespace rsg;

void BM_RsgPla(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const pla::TruthTable table = pla::TruthTable::random(n, n, 2 * n, 7);
  for (auto _ : state) {
    const GeneratorResult result = pla::generate_pla(table);
    benchmark::DoNotOptimize(result.top);
  }
  state.SetLabel("inputs=" + std::to_string(n));
}
BENCHMARK(BM_RsgPla)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_HplaPla(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const pla::TruthTable table = pla::TruthTable::random(n, n, 2 * n, 7);
  for (auto _ : state) {
    CellTable cells;
    hpla::install_pla_library(cells);
    const Cell& sample = hpla::build_sample_pla(cells);
    const hpla::Description d = hpla::compile_description(sample);
    const Cell& out = hpla::generate(cells, d, table, "out");
    benchmark::DoNotOptimize(&out);
  }
  state.SetLabel("inputs=" + std::to_string(n));
}
BENCHMARK(BM_HplaPla)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void print_comparison() {
  std::printf("== E10/E11 (Figure 1.2, §1.2.2): RSG vs HPLA ==\n");

  // Sample sizes.
  CellTable cells;
  hpla::install_pla_library(cells);
  const hpla::Description d = hpla::compile_description(hpla::build_sample_pla(cells));
  const pla::TruthTable table = pla::TruthTable::random(3, 2, 4, 3);
  const GeneratorResult rsg_run = pla::generate_pla(table);
  std::printf("sample the user draws:  RSG %zu example instances + %zu labels;"
              " HPLA %zu instances (full 2x2x2 PLA)\n",
              rsg_run.sample_stats.assembly_instances,
              rsg_run.sample_stats.interfaces_declared, d.sample_instance_count);

  // Relocation copies.
  hpla::GenerateStats stats;
  hpla::generate(cells, d, table, "copy-count", &stats);
  std::printf("HPLA relocated cell copies per run: %zu (RSG shares definitions: 0)\n",
              stats.relocated_cell_copies);

  // Architectures from one framework (Figure 1.2's generality axis).
  const GeneratorResult dec = pla::generate_decoder(3);
  const GeneratorResult folded = pla::generate_folded_pla(
      pla::TruthTable::parse("10-- 1010\n01-- 0010\n--10 1000\n"
                             "--01 0101\n11-- 0001\n0011 0100\n"));
  std::printf("architectures from ONE RSG framework here: PLA, FOLDED-column PLA"
              " (%zu instances, §1.2.3), decoder (%zu instances), array multiplier"
              " (bench_t45) = 4;  HPLA: 1 (plain PLAs only)\n\n",
              folded.top->flattened_instance_count(),
              dec.top->flattened_instance_count());
}

}  // namespace

int main(int argc, char** argv) {
  print_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
