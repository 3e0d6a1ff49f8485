#include "inputs.hpp"

#include "io/param_file.hpp"
#include "pla/truth_table.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

// Truth-table personalities are drawn from seeds 1..kPersonalities, and leaf
// libraries from seeds 1..kLibrarySeeds: small pools, all pinned.
constexpr int kPersonalities = 8;
constexpr std::uint32_t kLibrarySeeds = 8;

struct PlaShape {
  int inputs;
  int outputs;
  int terms;
};
constexpr PlaShape kCompactPla{8, 8, 32};
constexpr PlaShape kServePla{8, 8, 24};

std::string truth_table_text(const rsg::pla::TruthTable& table) {
  std::string text;
  for (const rsg::pla::Term& term : table.terms()) {
    for (const rsg::pla::InBit bit : term.inputs) {
      text += bit == rsg::pla::InBit::kZero ? '0' : bit == rsg::pla::InBit::kOne ? '1' : '-';
    }
    text += ' ';
    for (const bool bit : term.outputs) text += bit ? '1' : '0';
    text += '\n';
  }
  return text;
}

// TruthTable::random masked to the fold rule of pla::is_foldable: output
// 2c-1 only in the upper half of the terms, output 2c only in the lower.
rsg::pla::TruthTable foldable_random(const PlaShape& shape, std::uint64_t seed) {
  const rsg::pla::TruthTable raw =
      rsg::pla::TruthTable::random(shape.inputs, shape.outputs, shape.terms, seed);
  rsg::pla::TruthTable table(shape.inputs, shape.outputs);
  const int split = shape.terms / 2;
  int t = 0;
  for (rsg::pla::Term term : raw.terms()) {
    const bool upper_term = t++ < split;
    bool any = false;
    for (std::size_t o = 0; o < term.outputs.size(); ++o) {
      const bool upper_output = o % 2 == 0;
      if (upper_output != upper_term) term.outputs[o] = false;
      any = any || term.outputs[o];
    }
    if (!any) term.outputs[upper_term ? 0 : 1] = true;
    table.add_term(std::move(term));
  }
  return table;
}

std::string shape_name(const PlaShape& shape) {
  return std::to_string(shape.inputs) + "x" + std::to_string(shape.outputs) + "x" +
         std::to_string(shape.terms);
}

Input decoder(int decbits, bool compact) {
  return {"decoder decbits=" + std::to_string(decbits) + (compact ? " compact" : ""), "decoder",
          "decbits = " + std::to_string(decbits) + "\n", "", compact};
}

Input mult(int asize, bool compact) {
  return {"mult asize=" + std::to_string(asize) + (compact ? " compact" : ""), "mult",
          "asize = " + std::to_string(asize) + "\n", "", compact};
}

Input ram(int words, int bits, bool compact) {
  return {"ram words=" + std::to_string(words) + " bits=" + std::to_string(bits) +
              (compact ? " compact" : ""),
          "ram", "words = " + std::to_string(words) + "\nbits = " + std::to_string(bits) + "\n", "",
          compact};
}

Input pla(const PlaShape& shape, int personality, bool folded, bool compact) {
  const rsg::pla::TruthTable table =
      folded ? foldable_random(shape, static_cast<std::uint64_t>(personality))
             : rsg::pla::TruthTable::random(shape.inputs, shape.outputs, shape.terms,
                                            static_cast<std::uint64_t>(personality));
  const std::string design = folded ? "pla_folded" : "pla";
  return {design + " " + shape_name(shape) + " tt=" + std::to_string(personality) +
              (compact ? " compact" : ""),
          design, "", truth_table_text(table), compact};
}

int pick_personality(Rng& rng) { return 1 + static_cast<int>(rng.below(kPersonalities)); }

// One leaf_retarget pass ports every pooled library, all of one size, in a
// seeded order: the libraries' LP sizes differ, so a seeded subset would
// change a pass's work from one seed to the next, and mixed sizes would make
// the latency percentiles jump between sizes as the pass count changes.
constexpr int kLeafCells = 48;

LeafInput leaf(std::uint32_t library_seed) {
  return {"leaf cells=" + std::to_string(kLeafCells) + " boxes=8 seed=" +
              std::to_string(library_seed),
          kLeafCells, 8, library_seed};
}

}  // namespace

DesignSet load_designs(const std::string& designs_dir) {
  const auto read = [&](const char* name) { return rsg::read_text_file(designs_dir + "/" + name); };
  const std::string pla_sample = read("pla.sample");
  const std::string pla_params = read("pla.par");
  DesignSet set;
  set["decoder"] = {pla_sample, read("decoder.rsg"), pla_params, "decoder"};
  set["mult"] = {read("mult.sample"), read("mult.rsg"), read("mult.par"), ""};
  set["ram"] = {read("ram.sample"), read("ram.rsg"), read("ram.par"), ""};
  set["pla"] = {pla_sample, read("pla.rsg"), pla_params, "pla"};
  set["pla_folded"] = {pla_sample, read("pla_folded.rsg"), pla_params, "foldedpla"};
  return set;
}

std::string parameter_text(const DesignFiles& files, const Input& input, bool directive) {
  std::string text = files.params + "\n" + input.overrides;
  if (directive && input.compact) text += ".compact:xy\n";
  return text;
}

std::vector<Input> compact_inputs(std::uint64_t seed) {
  Rng rng(seed ^ 0xC0FFEEull);
  std::vector<Input> inputs = {decoder(8, true), ram(32, 32, true), mult(20, true),
                               pla(kCompactPla, pick_personality(rng), false, true),
                               pla(kCompactPla, pick_personality(rng), true, true)};
  shuffle(inputs, rng);
  return inputs;
}

std::vector<Input> warmup_inputs() {
  return {decoder(3, false), mult(4, false), ram(4, 4, false),
          pla(PlaShape{4, 4, 8}, 1, false, false), pla(PlaShape{4, 4, 8}, 1, true, false)};
}

std::vector<Input> serve_pool() {
  std::vector<Input> pool;
  for (int bits = 6; bits <= 8; ++bits) pool.push_back(decoder(bits, false));
  for (int asize = 8; asize <= 16; ++asize) pool.push_back(mult(asize, false));
  for (const int words : {8, 16, 32}) {
    for (const int bits : {8, 16}) pool.push_back(ram(words, bits, false));
  }
  for (int p = 1; p <= kPersonalities; ++p) pool.push_back(pla(kServePla, p, false, false));
  for (int p = 1; p <= kPersonalities; ++p) pool.push_back(pla(kServePla, p, true, false));
  for (int bits = 6; bits <= 8; ++bits) pool.push_back(decoder(bits, true));
  for (int asize = 8; asize <= 16; ++asize) pool.push_back(mult(asize, true));
  return pool;
}

std::vector<LeafInput> leaf_inputs(std::uint64_t seed) {
  Rng rng(seed ^ 0x1EAFull);
  std::vector<LeafInput> pool = all_pinned_leaf_inputs();
  shuffle(pool, rng);
  return pool;
}

std::vector<Input> all_pinned_inputs() {
  std::vector<Input> all = {decoder(8, true), ram(32, 32, true), mult(20, true)};
  for (int p = 1; p <= kPersonalities; ++p) {
    all.push_back(pla(kCompactPla, p, false, true));
    all.push_back(pla(kCompactPla, p, true, true));
  }
  for (Input& input : serve_pool()) all.push_back(std::move(input));
  return all;
}

std::vector<LeafInput> all_pinned_leaf_inputs() {
  std::vector<LeafInput> all;
  for (std::uint32_t s = 1; s <= kLibrarySeeds; ++s) all.push_back(leaf(s));
  return all;
}

}  // namespace perfbench
