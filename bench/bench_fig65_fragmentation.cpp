// E16 (Figure 6.5 / §6.4.1): "Consider a piece of diffusion fragmented into
// n abutting boxes ... Indiscriminately generating constraints between left
// edges and right edges would force the x size of the final layout to be at
// least nλ ... Merging the boxes into one box would get rid of the
// fragmentation and allow the layout to shrink to the minimum width for
// diffusion."
//
// Compares compacted widths under the naive pairwise generator and the
// visibility scan line (whose net-awareness subsumes merging), for growing
// fragment counts. The naive rows are compact_flat's pass with the test-only
// oracle's naive generator (tests/oracle) in place of the scan line; the
// scanline rows are compact_flat itself.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "compact/flat_compactor.hpp"
#include "oracle/reference_generators.hpp"

namespace {

using namespace rsg;
using namespace rsg::compact;

std::vector<LayerBox> fragmented_bus(int n) {
  std::vector<LayerBox> boxes;
  for (int i = 0; i < n; ++i) {
    boxes.push_back({Layer::kDiffusion, Box(i * 10, 0, (i + 1) * 10, 4)});
  }
  return boxes;
}

void BM_Fragmented(benchmark::State& state, bool naive) {
  const int n = static_cast<int>(state.range(0));
  const auto boxes = fragmented_bus(n);
  const std::vector<bool> stretch(boxes.size(), true);
  FlatResult result;
  for (auto _ : state) {
    result = naive ? oracle::compact_flat_naive(boxes, CompactionRules::mosis(), stretch)
                   : compact_flat(boxes, CompactionRules::mosis(), {}, stretch);
    benchmark::DoNotOptimize(result.width_after);
  }
  state.counters["width_after"] = static_cast<double>(result.width_after);
  state.counters["constraints"] = static_cast<double>(result.constraint_count);
}

void BM_FragmentedNaive(benchmark::State& state) { BM_Fragmented(state, true); }
void BM_FragmentedScanline(benchmark::State& state) { BM_Fragmented(state, false); }

BENCHMARK(BM_FragmentedNaive)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_FragmentedScanline)->Arg(8)->Arg(32)->Arg(128);

void print_widths() {
  std::printf("== E16 (Figure 6.5): fragmented-bus overconstraint ==\n");
  std::printf("%-6s %-14s %-18s %-12s\n", "n", "naive width", "scanline width", "paper");
  for (const int n : {4, 8, 32, 128, 256}) {
    const auto boxes = fragmented_bus(n);
    const std::vector<bool> stretch(boxes.size(), true);
    const Coord bad =
        oracle::compact_flat_naive(boxes, CompactionRules::mosis(), stretch).width_after;
    const Coord good = compact_flat(boxes, CompactionRules::mosis(), {}, stretch).width_after;
    std::printf("%-6d %-14lld %-18lld >= n*λ vs min-width\n", n,
                static_cast<long long>(bad), static_cast<long long>(good));
  }
  std::printf("(λ_diffusion = 6, min diffusion width = 4 in the rule table)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_widths();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
