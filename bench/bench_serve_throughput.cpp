// Serving throughput: the payoff of the compile-once/run-many split.
//
// Three questions, one benchmark file (artifact: BENCH_serve_throughput.json):
//   1. compile-once vs compile-per-request — how much of a request's cost
//      is sample parsing + AST building that CompiledDesign amortizes away?
//      (BM_ServeCompilePerRequest vs BM_ServeCompileOnce)
//   2. thread scaling — do concurrent sessions over one shared base scale,
//      1/2/4/8 threads? (BM_ServeThreadSweep; real_time so wall-clock,
//      and the `cores` counter records what the host can actually provide —
//      scaling claims are only meaningful when cores >= threads)
//   3. cache — cold vs cached request cost (BM_ServeCacheCold/Hit).
#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "io/param_file.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/serve_core.hpp"
#include "rsg/session.hpp"

namespace {

using namespace rsg;

// Small per-request parameterization: serving workloads re-run one compiled
// design across many small parameter variations, which is exactly where the
// compile cost (sample parse + AST build) dominates and amortization pays.
const char kParamsTail[] = "\nasize = 3\nbeta = 1\n";

std::string mult_params() { return read_text_file(designs_path("mult.par")) + kParamsTail; }

// The compile-once pair serves a LIBRARY-rich design: a sample with many
// leaf cells of which a request instantiates only a few — the shape of a
// real serving library, and the case compile-once exists for. The filler
// cells are built here, outside the timed region, so both benchmarks parse
// the identical sample text.
std::string library_sample(int library_cells) {
  std::string sample =
      "cell tile\n"
      "  box poly 0 0 4 12\n"
      "  box diff 0 4 12 8\n"
      "end\n";
  for (int k = 0; k < library_cells; ++k) {
    const std::string id = std::to_string(k);
    sample += "cell lib" + id +
              "\n"
              "  box poly 0 0 4 12\n"
              "  box diff 0 4 12 8\n"
              "  box metal1 2 0 6 12\n"
              "  box metal2 0 2 12 6\n"
              "end\n";
  }
  sample +=
      "assembly\n"
      "  inst t1 tile 0 0 N\n"
      "  inst t2 tile 10 0 N\n"
      "  inst t3 tile 0 14 N\n"
      "  label 1 from t1 to t2\n"
      "  label 2 from t1 to t3\n"
      "end\n";
  return sample;
}

const char kLibraryDesign[] =
    "(macro mfield (rows cols)\n"
    "  (do (i 1 (+ i 1) (> i rows))\n"
    "      (do (j 1 (+ j 1) (> j cols))\n"
    "          (mk_instance t.i.j tile)\n"
    "          (cond ((> j 1) (connect t.i.(- j 1) t.i.j 1)))\n"
    "          (cond ((> i 1) (connect t.(- i 1).j t.i.j 2))))))\n"
    "(assign f (mfield rows cols))\n"
    "(mk_cell \"bench_field\" (subcell f t.1.1))\n";

const char kLibraryParams[] = "rows = 2\ncols = 2\n";
constexpr int kLibraryCells = 96;

// Compile-per-request: what a naive server pays — a fresh compile (sample
// re-read, design re-parsed) plus a session on every request.
void BM_ServeCompilePerRequest(benchmark::State& state) {
  const std::string sample = library_sample(kLibraryCells);
  for (auto _ : state) {
    GenerationSession session(CompiledDesign::compile(sample, kLibraryDesign));
    const GeneratorResult result = session.generate(kLibraryParams);
    benchmark::DoNotOptimize(result.output.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCompilePerRequest)->Unit(benchmark::kMillisecond);

// Compile-once: the CompiledDesign is built outside the loop; each request
// is a fresh session over the shared base. The ratio to the benchmark above
// is the compile-once speedup (bench_smoke.sh asserts >= 3x).
void BM_ServeCompileOnce(benchmark::State& state) {
  const auto compiled = CompiledDesign::compile(library_sample(kLibraryCells), kLibraryDesign);
  for (auto _ : state) {
    GenerationSession session(compiled);
    const GeneratorResult result = session.generate(kLibraryParams);
    benchmark::DoNotOptimize(result.output.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCompileOnce)->Unit(benchmark::kMillisecond);

// Thread sweep over one shared ServeCore, cache off: every request runs the
// full generate. Measured in real time; requests/sec is the items rate.
void BM_ServeThreadSweep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ServeOptions options;
  options.num_threads = static_cast<std::size_t>(threads);
  options.cache_capacity = 0;
  ServeCore core(options);
  core.add_design("mult", read_text_file(designs_path("mult.sample")),
                  read_text_file(designs_path("mult.rsg")));
  GenerateRequest request;
  request.design = "mult";
  request.params = mult_params();

  constexpr int kBatch = 8;
  for (auto _ : state) {
    std::vector<std::future<GenerateResponse>> futures;
    futures.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) futures.push_back(core.submit(request));
    for (auto& future : futures) {
      const GenerateResponse response = future.get();
      benchmark::DoNotOptimize(response.cif.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  // "pool_threads" (not "threads") — the latter is Google Benchmark's own
  // field for benchmark-harness threads and must not be shadowed.
  state.counters["pool_threads"] = threads;
  state.counters["cores"] = static_cast<double>(std::thread::hardware_concurrency());
}
BENCHMARK(BM_ServeThreadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Cold vs cached: same ServeCore, cache on. Cold bypasses the cache (every
// iteration generates); hit runs the identical request against a warm cache.
void BM_ServeCacheCold(benchmark::State& state) {
  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 8;
  ServeCore core(options);
  core.add_design("mult", read_text_file(designs_path("mult.sample")),
                  read_text_file(designs_path("mult.rsg")));
  GenerateRequest request;
  request.design = "mult";
  request.params = mult_params();
  request.bypass_cache = true;
  for (auto _ : state) {
    const GenerateResponse response = core.handle(request);
    benchmark::DoNotOptimize(response.cif.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCacheCold)->Unit(benchmark::kMillisecond);

void BM_ServeCacheHit(benchmark::State& state) {
  ServeOptions options;
  options.num_threads = 1;
  options.cache_capacity = 8;
  ServeCore core(options);
  core.add_design("mult", read_text_file(designs_path("mult.sample")),
                  read_text_file(designs_path("mult.rsg")));
  GenerateRequest request;
  request.design = "mult";
  request.params = mult_params();
  core.handle(request);  // warm the cache
  for (auto _ : state) {
    const GenerateResponse response = core.handle(request);
    benchmark::DoNotOptimize(response.cif.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCacheHit)->Unit(benchmark::kMillisecond);

}  // namespace
