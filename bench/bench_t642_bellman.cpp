// E15 (§6.4.2): "The algorithm proved to be extremely fast, especially if
// the edges are traversed in sorted (according to their abscissa) order ...
// In the case where the initial ordering is preserved in the final layout
// exactly one relaxation step is required instead of the |V| required in
// the worst case."
//
// Counts relaxation passes for sorted / insertion / adversarially reversed
// edge orders on constraint chains, and measures wall time.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "compact/bellman_ford.hpp"

namespace {

using namespace rsg::compact;

ConstraintSystem make_chain(int n) {
  ConstraintSystem system;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) {
    vars.push_back(system.add_variable(i * 10));
  }
  for (int i = 1; i < n; ++i) {
    system.add_constraint(vars[static_cast<std::size_t>(i - 1)],
                          vars[static_cast<std::size_t>(i)], 4, ConstraintKind::kSpacing);
  }
  return system;
}

void BM_Bellman(benchmark::State& state, EdgeOrder order) {
  const int n = static_cast<int>(state.range(0));
  ConstraintSystem system = make_chain(n);
  SolveStats stats;
  for (auto _ : state) {
    stats = solve_leftmost(system, order);
    benchmark::DoNotOptimize(system.values.data());
  }
  state.counters["passes"] = stats.passes;
  state.counters["relaxations"] = static_cast<double>(stats.relaxations);
}

void BM_BellmanSorted(benchmark::State& state) { BM_Bellman(state, EdgeOrder::kSorted); }
void BM_BellmanInsertion(benchmark::State& state) { BM_Bellman(state, EdgeOrder::kInsertion); }
void BM_BellmanReversed(benchmark::State& state) { BM_Bellman(state, EdgeOrder::kReversed); }

BENCHMARK(BM_BellmanSorted)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_BellmanInsertion)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_BellmanReversed)->Arg(100)->Arg(1000)->Arg(10000);

void print_pass_counts() {
  std::printf("== E15 (§6.4.2): Bellman-Ford relaxation passes by edge order ==\n");
  std::printf("%-8s %-18s %-18s %-18s\n", "|V|", "sorted", "insertion", "reversed");
  for (const int n : {100, 1000, 10000}) {
    int passes[3];
    const EdgeOrder orders[3] = {EdgeOrder::kSorted, EdgeOrder::kInsertion,
                                 EdgeOrder::kReversed};
    for (int k = 0; k < 3; ++k) {
      ConstraintSystem system = make_chain(n);
      passes[k] = solve_leftmost(system, orders[k]).passes;
    }
    std::printf("%-8d %-18d %-18d %-18d\n", n, passes[0], passes[1], passes[2]);
  }
  std::printf("paper: 1 productive pass when initial order is preserved vs |V| worst\n");
  std::printf("case (our counts include the final no-change verification pass).\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_pass_counts();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
