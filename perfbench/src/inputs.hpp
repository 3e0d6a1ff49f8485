// The benchmark's inputs: the five bundled designs and the seeded input
// lists of each workload.
//
// Every input a workload can draw belongs to a finite pool, so every output
// the benchmark can produce has a pinned digest (pins.json). The seed picks
// pool members (truth-table personalities, leaf libraries, the serve
// request stream) and their order; it never changes an input's size, so
// runs with different seeds do the same amount of work.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// One design's three files (Fig. 1.1: sample layout, design file,
// parameter defaults) and the top cell its generator names.
struct DesignFiles {
  std::string sample;
  std::string program;
  std::string params;
  std::string top_cell;  // empty: the most recently created cell
};

using DesignSet = std::map<std::string, DesignFiles>;

// The five designs of designs/README.md, read from `designs_dir`.
DesignSet load_designs(const std::string& designs_dir);

struct Input {
  std::string key;          // stable name; the pin key of its output
  std::string design;       // key into the DesignSet
  std::string overrides;    // parameter lines appended to the defaults
  std::string truth_table;  // PLA personality text (pla, pla_folded)
  bool compact = false;     // request x/y compaction of the top cell
};

// The parameter file of `input`: the design's defaults plus its overrides,
// and `.compact:xy` when `directive` is set and the input compacts (the
// CLI's way to ask; the serving core takes a request flag instead).
std::string parameter_text(const DesignFiles& files, const Input& input, bool directive);

// The compact workload's input list for one seed. Sizes are fixed; the
// seed picks personalities and order.
std::vector<Input> compact_inputs(std::uint64_t seed);
// A tiny input per design, generated once per set-up to warm up.
std::vector<Input> warmup_inputs();

// Every input the serve stream can draw. Fresh requests add one parameter
// line that changes the cache key but not the output.
std::vector<Input> serve_pool();

struct LeafInput {
  std::string key;
  int cells = 0;
  int boxes_per_cell = 0;
  std::uint32_t library_seed = 0;
};
std::vector<LeafInput> leaf_inputs(std::uint64_t seed);

// Everything pins.json covers.
std::vector<Input> all_pinned_inputs();
std::vector<LeafInput> all_pinned_leaf_inputs();

}  // namespace perfbench
