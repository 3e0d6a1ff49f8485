// Compile-once/run-many: CompiledDesign + GenerationSession.
//
// The load-bearing contracts: (1) GeneratorResult owns what it points at —
// results stay valid after the session and the design die; (2) a session
// over one shared design is BYTE-identical to a fresh compile per run; (3)
// N concurrent sessions over one shared CompiledDesign neither race (TSan
// CI job) nor perturb each other's output; (4) the base tables are
// immutable — session mutations land in the overlay; (5) a CIF sample
// compiles to the same design as its text twin.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/param_file.hpp"
#include "io/snapshot.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"
#include "support/arena.hpp"
#include "support/error.hpp"

namespace rsg {
namespace {

struct SeedDesign {
  std::string name;
  std::string sample;
  std::string design;
  std::string params;
  std::string top;          // explicit top for designs that need one
  std::string truth_table;  // non-empty = PLA-style, needs an encoding table
};

// The five seed designs of designs/README.md plus an inline synthetic
// design, all driven exactly as their tests drive them.
std::vector<SeedDesign> seed_designs() {
  const std::string pla_sample = read_text_file(designs_path("pla.sample"));
  const std::string pla_params = read_text_file(designs_path("pla.par"));
  const std::string tt =
      "10- 10\n"
      "01- 01\n"
      "-11 11\n";
  std::vector<SeedDesign> designs;
  designs.push_back({"mult", read_text_file(designs_path("mult.sample")),
                     read_text_file(designs_path("mult.rsg")),
                     read_text_file(designs_path("mult.par")), "", ""});
  designs.push_back({"pla", pla_sample, read_text_file(designs_path("pla.rsg")), pla_params,
                     "pla", tt});
  designs.push_back({"pla_folded", pla_sample, read_text_file(designs_path("pla_folded.rsg")),
                     pla_params, "foldedpla",
                     "10 10\n"
                     "01 01\n"});
  designs.push_back({"decoder", pla_sample, read_text_file(designs_path("decoder.rsg")),
                     pla_params + "decbits = 2\n", "decoder", tt});
  designs.push_back({"ram", read_text_file(designs_path("ram.sample")),
                     read_text_file(designs_path("ram.rsg")),
                     read_text_file(designs_path("ram.par")), "", ""});
  // Synthetic 6th design: a small regular tiling defined entirely inline,
  // in the same idiom as mult.rsg's marray.
  designs.push_back({"synth",
                     "cell tile\n"
                     "  box poly 0 0 4 12\n"
                     "  box diff 0 4 12 8\n"
                     "end\n"
                     "\n"
                     "assembly\n"
                     "  inst t1 tile 0 0 N\n"
                     "  inst t2 tile 10 0 N\n"
                     "  inst t3 tile 0 14 N\n"
                     "  label 1 from t1 to t2\n"
                     "  label 2 from t1 to t3\n"
                     "end\n",
                     "(macro mfield (rows cols)\n"
                     "  (do (i 1 (+ i 1) (> i rows))\n"
                     "      (do (j 1 (+ j 1) (> j cols))\n"
                     "          (mk_instance t.i.j tile)\n"
                     "          (cond ((> j 1) (connect t.i.(- j 1) t.i.j 1)))\n"
                     "          (cond ((> i 1) (connect t.(- i 1).j t.i.j 2))))))\n"
                     "(assign f (mfield rows cols))\n"
                     "(mk_cell \"synth_field\" (subcell f t.1.1))\n",
                     "rows = 3\ncols = 4\n", "", ""});
  return designs;
}

std::string run_session(const std::shared_ptr<const CompiledDesign>& compiled,
                        const SeedDesign& design) {
  GenerationSession session(compiled);
  lang::Interpreter::EncodingTable encoding;
  if (!design.truth_table.empty()) {
    encoding = pla::to_encoding_table(pla::TruthTable::parse(design.truth_table));
    session.set_encoding_table(&encoding);
  }
  return session.generate(design.params, design.top).output;
}

TEST(GeneratorResult, OutlivesItsSessionAndDesign) {
  GeneratorResult result;
  {
    auto compiled = CompiledDesign::compile(read_text_file(designs_path("mult.sample")),
                                            read_text_file(designs_path("mult.rsg")));
    GenerationSession session(compiled);
    compiled.reset();  // the session keeps the design alive...
    result = session.generate(read_text_file(designs_path("mult.par")));
  }  // ...and the result keeps the session state alive
  ASSERT_NE(result.top, nullptr);
  EXPECT_FALSE(result.top->name().empty());
  EXPECT_FALSE(result.top->instances().empty());
  EXPECT_FALSE(result.output.empty());
}

// A fresh compile per run: the one-shot path (rsg_cli, src/pla).
std::string run_fresh(const SeedDesign& design) {
  return run_session(CompiledDesign::compile(design.sample, design.design), design);
}

TEST(GenerationSession, ByteIdenticalToLegacyGenerator) {
  // A session over a shared design matches a fresh compile per run.
  for (const SeedDesign& design : seed_designs()) {
    SCOPED_TRACE(design.name);
    const std::string fresh = run_fresh(design);
    auto compiled = CompiledDesign::compile(design.sample, design.design);
    EXPECT_EQ(fresh, run_session(compiled, design));
  }
}

TEST(CompiledDesign, CifSampleMatchesItsTextTwin) {
  // §4.5: any layout format, given a parser. The brick sample as text and
  // as CIF (the assembly cell carries the 94 label) compile to the same
  // design, and their sessions render the same bytes, compacted or not.
  const std::string text_sample = R"(
cell brick
  box metal1 0 0 20 8
end
assembly
  inst a brick 0 0 N
  inst b brick 16 0 N
  label 1 at 18 4
end
)";
  const std::string cif_sample = R"(
DS 1 1 1;
9 brick;
L CM1; B 20 8 10 4;
DF;
DS 2 1 1;
9 assembly1;
C 1 T 0 0;
C 1 T 16 0;
94 1 18 4;
DF;
E
)";
  const std::string design = R"(
(macro mrow (n)
  (locals foo)
  (do (i 1 (+ i 1) (> i n))
      (mk_instance b.i brick)
      (cond ((> i 1) (connect b.(- i 1) b.i 1)))))
(assign r (mrow n))
(mk_cell "row" (subcell r b.1))
)";
  const auto text = CompiledDesign::compile(text_sample, design);
  const auto cif = CompiledDesign::compile(cif_sample, design);
  const SampleLayoutStats& t = text->sample_stats();
  const SampleLayoutStats& c = cif->sample_stats();
  EXPECT_EQ(c.cells, t.cells);
  EXPECT_EQ(c.boxes, t.boxes);
  EXPECT_EQ(c.points, t.points);
  EXPECT_EQ(c.assembly_instances, t.assembly_instances);
  EXPECT_EQ(c.interfaces_declared, t.interfaces_declared);

  for (const bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compacted" : "plain");
    const std::string params = compact ? "n = 4\n.compact:xy\n" : "n = 4\n";
    GenerationSession from_text(text);
    GenerationSession from_cif(cif);
    const GeneratorResult expected = from_text.generate(params);
    const GeneratorResult result = from_cif.generate(params);
    EXPECT_EQ(result.compacted, compact);
    EXPECT_EQ(result.output, expected.output);
  }
}

// Parameter text naming things the program never mentions: a plain value
// and a symbol value naming one of the design's sample cells; where the
// design reads a renamed cell, that name is routed through the new symbol.
// Every name here is first met at run time, so it lands in the session's
// symbol overlay — never in the compiled design's shared table.
std::string run_time_names(const SeedDesign& design, int thread, int run) {
  struct Rename {
    const char* design;
    const char* param;  // a cell name the program reads, or "" for none
    const char* cell;
  };
  static const Rename kRenames[] = {
      {"mult", "corecell", "cell"},  {"pla", "andcell", "and-cell"},
      {"pla_folded", "andcell", "and-cell"}, {"decoder", "andcell", "and-cell"},
      {"ram", "", "bit"},           {"synth", "", "tile"},
  };
  const std::string tag = std::to_string(thread) + "_" + std::to_string(run);
  for (const Rename& rename : kRenames) {
    if (design.name != rename.design) continue;
    std::string text = "\nunused_" + tag + " = " + tag.substr(0, 1) + "\nalias_" + tag + " = " +
                       rename.cell + "\n";
    if (*rename.param != '\0') text += std::string(rename.param) + " = alias_" + tag + "\n";
    return text;
  }
  ADD_FAILURE() << "no run-time names for design " << design.name;
  return {};
}

TEST(GenerationSession, ConcurrentMixedSessionsAreByteIdentical) {
  const std::vector<SeedDesign> designs = seed_designs();

  // Compile each design once; record single-threaded reference output.
  std::vector<std::shared_ptr<const CompiledDesign>> compiled;
  std::vector<std::string> reference;
  std::vector<std::size_t> symbols;
  for (const SeedDesign& design : designs) {
    compiled.push_back(CompiledDesign::compile(design.sample, design.design));
    symbols.push_back(compiled.back()->program().symbols().size());
    reference.push_back(run_session(compiled.back(), design));
    EXPECT_EQ(reference.back(), run_fresh(design)) << design.name;
  }

  // N threads, each running a rotating mix of designs off the SHARED
  // compiled bases, each with parameter names of its own. Any
  // cross-session interference shows up as an output diff; any base write
  // shows up under TSan.
  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 3;
  std::vector<std::vector<std::string>> outputs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        const std::size_t i = static_cast<std::size_t>(t + r) % designs.size();
        SeedDesign design = designs[i];
        design.params += run_time_names(design, t, r);
        outputs[static_cast<std::size_t>(t)].push_back(run_session(compiled[i], design));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRunsPerThread; ++r) {
      const std::size_t i = static_cast<std::size_t>(t + r) % designs.size();
      EXPECT_EQ(outputs[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)], reference[i])
          << designs[i].name << " diverged on thread " << t << " run " << r;
    }
  }
  // No run-time name reached a compiled design's symbol table.
  for (std::size_t i = 0; i < designs.size(); ++i) {
    EXPECT_EQ(compiled[i]->program().symbols().size(), symbols[i]) << designs[i].name;
  }
}

TEST(GenerationSession, OverlayLeavesBaseUntouched) {
  auto compiled = CompiledDesign::compile(read_text_file(designs_path("mult.sample")),
                                          read_text_file(designs_path("mult.rsg")));
  const std::size_t base_cells = compiled->cells().size();
  const std::size_t base_interfaces = compiled->interfaces().size();

  GenerationSession first(compiled);
  first.generate(read_text_file(designs_path("mult.par")));
  EXPECT_EQ(compiled->cells().size(), base_cells);
  EXPECT_EQ(compiled->interfaces().size(), base_interfaces);
  EXPECT_GT(first.cells().size(), base_cells);  // overlay sees base + new cells

  // A sibling session must not see the first session's cells.
  GenerationSession second(compiled);
  EXPECT_EQ(second.cells().size(), base_cells);
  const GeneratorResult result = second.generate(read_text_file(designs_path("mult.par")));
  EXPECT_NE(result.top, nullptr);
}

TEST(GenerationSession, BaseCellsAreImmutableThroughOverlay) {
  auto compiled = CompiledDesign::compile(
      "cell seed\n  box metal1 0 0 4 4\nend\n"
      "assembly\n"
      "  inst s1 seed 0 0 N\n"
      "  inst s2 seed 6 0 N\n"
      "  label 1 from s1 to s2\n"
      "end\n",
      "(mk_instance s seed)\n");
  GenerationSession session(compiled);
  // Const lookup falls through to the base...
  EXPECT_NE(std::as_const(session.cells()).find("seed"), nullptr);
  // ...but a mutable handle on a base cell is refused.
  EXPECT_THROW(session.cells().get("seed"), LayoutError);
  // And overlay creation cannot shadow a base name.
  EXPECT_THROW(session.cells().create("seed"), LayoutError);
}

TEST(GenerationSession, SnapshotBackedCompile) {
  const std::string sample = read_text_file(designs_path("mult.sample"));
  const std::string design = read_text_file(designs_path("mult.rsg"));
  const std::string params = read_text_file(designs_path("mult.par"));

  // Generate once, snapshot the library.
  const std::string path = testing::TempDir() + "session_test_lib.rsgb";
  {
    GenerationSession session(CompiledDesign::compile(sample, design));
    const GeneratorResult result = session.generate(params);
    write_snapshot_file(path, session.cells(), result.top->name());
  }

  // A design compiled over the snapshot sees the snapshot cells as base
  // library without any sample/design re-run.
  CompileOptions options;
  options.snapshot_path = path;
  auto compiled = CompiledDesign::compile(
      "cell compile_probe\n  box metal1 0 0 2 2\nend\n", "nil\n", options);
  ASSERT_NE(compiled->snapshot_stats(), nullptr);
  EXPECT_GT(compiled->snapshot_stats()->cells, 0u);
  EXPECT_GT(compiled->cells().size(), 0u);
  std::remove(path.c_str());
}

TEST(Arena, AllocatesAlignedAndRunsFinalizersInReverse) {
  std::vector<int> order;
  struct Tracked {
    std::vector<int>* order;
    int id;
    Tracked(std::vector<int>* o, int i) : order(o), id(i) {}
    ~Tracked() { order->push_back(id); }
  };
  {
    Arena arena;
    void* p = arena.allocate(3, 1);
    void* q = arena.allocate(8, 8);
    EXPECT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % 8, 0u);
    arena.create<Tracked>(&order, 1);
    arena.create<Tracked>(&order, 2);
    arena.create<Tracked>(&order, 3);
    EXPECT_GT(arena.bytes_allocated(), 0u);
  }
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));  // newest-first
}

TEST(Arena, ResetReclaimsAndReusesChunks) {
  Arena arena;
  for (int i = 0; i < 1000; ++i) arena.create<std::string>("spacious enough to defeat SSO....");
  const std::size_t chunks = arena.chunk_count();
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  for (int i = 0; i < 1000; ++i) arena.create<std::string>("spacious enough to defeat SSO....");
  EXPECT_LE(arena.chunk_count(), chunks);  // reused, not regrown
}

}  // namespace
}  // namespace rsg
