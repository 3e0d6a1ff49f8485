// Equivalence property tests for the scaled compaction hot path: the sweep
// net finder + ordered-segment profile must emit the byte-identical
// constraint system as the quadratic/linear reference, the worklist solvers
// must reproduce the pass-based solutions exactly (the least/greatest
// fixpoints are unique) and certify every infeasible verdict, and the
// hashed rigid-group matcher must build the same groups as the all-pairs
// scan — across 500+ seeded random box fields, the structured grid/PLA
// shapes the benchmarks sweep, and the stacked geometry compaction rounds
// leave behind. A work tripwire keeps the solver's dequeues linear.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>

#include "compact/flat_compactor.hpp"
#include "compact/rigid_groups.hpp"
#include "compact/synth_design.hpp"
#include "compact/xy_schedule.hpp"
#include "io/param_file.hpp"
#include "layout/flatten.hpp"
#include "rsg/generator.hpp"
#include "support/error.hpp"

namespace rsg::compact {
namespace {

std::vector<CompactionBox> to_compaction_boxes(const SynthField& field,
                                               ConstraintSystem& system) {
  std::vector<CompactionBox> boxes;
  boxes.reserve(field.boxes.size());
  for (std::size_t i = 0; i < field.boxes.size(); ++i) {
    CompactionBox cb;
    cb.geometry = field.boxes[i];
    cb.stretchable = field.stretchable[i];
    boxes.push_back(cb);
  }
  add_box_variables(system, boxes);
  return boxes;
}

void expect_identical_systems(const ConstraintSystem& fast, const ConstraintSystem& ref,
                              std::uint32_t seed) {
  ASSERT_EQ(fast.variable_count(), ref.variable_count()) << "seed " << seed;
  ASSERT_EQ(fast.constraint_count(), ref.constraint_count()) << "seed " << seed;
  for (std::size_t i = 0; i < fast.constraint_count(); ++i) {
    const Constraint& a = fast.constraints()[i];
    const Constraint& b = ref.constraints()[i];
    ASSERT_EQ(a.from, b.from) << "seed " << seed << " constraint " << i;
    ASSERT_EQ(a.to, b.to) << "seed " << seed << " constraint " << i;
    ASSERT_EQ(a.weight, b.weight) << "seed " << seed << " constraint " << i;
    ASSERT_EQ(a.pitch, b.pitch) << "seed " << seed << " constraint " << i;
    ASSERT_EQ(a.pitch_coeff, b.pitch_coeff) << "seed " << seed << " constraint " << i;
    ASSERT_EQ(a.kind, b.kind) << "seed " << seed << " constraint " << i;
  }
}

std::vector<SynthField> property_fields() {
  std::vector<SynthField> fields;
  for (std::uint32_t seed = 0; seed < 500; ++seed) {
    fields.push_back(make_random_field(seed, 4 + static_cast<int>(seed % 40)));
  }
  // The structured shapes the benchmarks sweep, at test-sized scales.
  fields.push_back(make_grid_field(6, 7));
  fields.push_back(make_grid_field(1, 30));
  fields.push_back(make_pla_field(8, 10));
  fields.push_back(make_pla_field(3, 25));
  // Adversarial active-set shapes for the sweep net finder: a same-x
  // contact column emitted top-to-bottom, and a descending staircase whose
  // x extents all overlap while the y extents never touch.
  SynthField column;
  for (int i = 40; i >= 0; --i) {
    column.boxes.push_back({Layer::kContactCut, Box(0, i * 12, 4, i * 12 + 4)});
    column.stretchable.push_back(false);
  }
  fields.push_back(column);
  SynthField staircase;
  for (int i = 0; i < 40; ++i) {
    staircase.boxes.push_back(
        {Layer::kMetal1, Box(i, 400 - i * 10, i + 200, 404 - i * 10)});
    staircase.stretchable.push_back(false);
  }
  fields.push_back(staircase);
  return fields;
}

// The flattened top cell of a seed design from designs/, parameter
// overrides appended to its parameter file.
std::vector<LayerBox> design_geometry(const std::string& sample, const std::string& design,
                                      const std::string& params, const std::string& overrides,
                                      const std::string& top = "") {
  Generator generator;
  const GeneratorResult result =
      generator.run(read_text_file(designs_path(sample)), read_text_file(designs_path(design)),
                    read_text_file(designs_path(params)) + "\n" + overrides, top);
  return flatten_boxes(*result.top);
}

std::vector<LayerBox> decoder_geometry(int decbits) {
  return design_geometry("pla.sample", "decoder.rsg", "pla.par",
                         "decbits = " + std::to_string(decbits) + "\n", "decoder");
}

std::vector<LayerBox> ram_geometry(int words, int bits) {
  return design_geometry("ram.sample", "ram.rsg", "ram.par",
                         "words = " + std::to_string(words) + "\nbits = " +
                             std::to_string(bits) + "\n");
}

// The schedule as `.compact:xy` runs it (best effort, incremental); the
// geometry after every round, as handed to the checkpoint sink, goes to
// `rounds`.
XyScheduleResult production_schedule(const std::vector<LayerBox>& boxes,
                                     std::vector<std::vector<LayerBox>>* rounds = nullptr) {
  XyScheduleOptions schedule = CompactionRequest::default_schedule();
  if (rounds != nullptr) {
    schedule.checkpoint_sink = [rounds](const XyCheckpoint& ck) { rounds->push_back(ck.boxes); };
  }
  return compact_flat_schedule(boxes, CompactionRules::mosis(), {}, schedule);
}

// Post-round geometry on both axes (the y axis transposed, as its pass sees
// it). Compaction slides boxes onto one another — same-net fragments, and
// whole layers without a self-spacing rule — so these fields hold the
// stacked boxes and infeasible systems the generated fields never do.
const std::vector<SynthField>& stacked_fields() {
  static const std::vector<SynthField> fields = [] {
    std::vector<std::vector<LayerBox>> sources;
    for (std::uint32_t seed = 0; seed < 12; ++seed) {
      sources.push_back(make_random_field(seed, 12 + static_cast<int>(seed % 5) * 6).boxes);
    }
    sources.push_back(decoder_geometry(6));
    sources.push_back(design_geometry("mult.sample", "mult.rsg", "mult.par", "asize = 8\n"));
    sources.push_back(ram_geometry(16, 16));
    std::vector<SynthField> out;
    for (const std::vector<LayerBox>& source : sources) {
      std::vector<std::vector<LayerBox>> rounds;
      production_schedule(source, &rounds);
      for (const std::vector<LayerBox>& round : rounds) {
        for (const std::vector<LayerBox>& axis : {round, transposed_boxes(round)}) {
          SynthField field;
          field.boxes = axis;
          field.stretchable.assign(axis.size(), false);
          out.push_back(std::move(field));
        }
      }
    }
    return out;
  }();
  return fields;
}

std::vector<SynthField> equivalence_fields() {
  std::vector<SynthField> fields = property_fields();
  fields.insert(fields.end(), stacked_fields().begin(), stacked_fields().end());
  return fields;
}

// An independent check of a PositiveCycle certificate, trusting nothing
// the solver computed: the indices chain head to tail, the chain closes,
// and the weights minus pitch terms sum to > 0.
::testing::AssertionResult is_positive_cycle(const ConstraintSystem& system,
                                             const std::vector<std::size_t>& cycle) {
  if (cycle.empty()) return ::testing::AssertionFailure() << "empty certificate";
  Coord sum = 0;
  for (std::size_t k = 0; k < cycle.size(); ++k) {
    const std::size_t next = cycle[(k + 1) % cycle.size()];
    if (cycle[k] >= system.constraint_count() || next >= system.constraint_count()) {
      return ::testing::AssertionFailure() << "constraint index out of range at " << k;
    }
    const Constraint& c = system.constraints()[cycle[k]];
    if (c.from < 0) return ::testing::AssertionFailure() << "cycle leaves the origin at " << k;
    if (c.to != system.constraints()[next].from) {
      return ::testing::AssertionFailure() << "chain breaks after position " << k;
    }
    const Coord pitch =
        c.pitch < 0 ? 0
                    : c.pitch_coeff * system.pitch_values[static_cast<std::size_t>(c.pitch)];
    sum += c.weight - pitch;
  }
  if (sum <= 0) return ::testing::AssertionFailure() << "cycle weight " << sum << " <= 0";
  return ::testing::AssertionSuccess();
}

// Runs `solve` and checks that it throws PositiveCycle with a valid
// certificate; returns the relaxations it reported.
template <class Solve>
std::size_t expect_certified(const ConstraintSystem& system, Solve&& solve,
                             const std::string& label) {
  try {
    solve();
  } catch (const PositiveCycle& verdict) {
    EXPECT_TRUE(is_positive_cycle(system, verdict.cycle())) << label;
    return verdict.relaxations();
  }
  ADD_FAILURE() << label << ": infeasible system solved without a verdict";
  return 0;
}

// Checks the worklist solvers' verdict on `system` against the pass-based
// oracle: the same values when it is feasible, a certified positive cycle
// in both directions when it is not. Returns false when infeasible.
bool expect_worklist_matches_pass_based(const ConstraintSystem& system,
                                        const std::string& label) {
  ConstraintSystem pass = system;
  bool feasible = true;
  try {
    EXPECT_TRUE(solve_leftmost(pass, EdgeOrder::kSorted).converged) << label;
  } catch (const Error&) {
    feasible = false;
  }
  ConstraintSystem work = system;
  if (!feasible) {
    expect_certified(work, [&] { solve_leftmost_worklist(work); }, label + " leftmost");
    std::vector<Coord> upper;
    expect_certified(work, [&] { solve_rightmost_worklist(work, 1 << 20, upper); },
                     label + " rightmost");
    return false;
  }
  EXPECT_TRUE(solve_leftmost_worklist(work).converged) << label;
  EXPECT_EQ(pass.values, work.values) << label;
  if (!pass.values.empty()) {
    const Coord width = *std::max_element(pass.values.begin(), pass.values.end());
    std::vector<Coord> pass_upper;
    solve_rightmost(pass, width, pass_upper);
    std::vector<Coord> work_upper;
    solve_rightmost_worklist(work, width, work_upper);
    EXPECT_EQ(pass_upper, work_upper) << label;
  }
  return true;
}

// A feasible system with a positive cycle planted behind it: a long chain
// of spacing constraints feeds a ring of net weight +1, which feeds a
// second long chain; each chain also gets weight-1 shortcuts, never
// longer than the chain path they skip.
// Initial abscissas follow the chains, as a layout's do, with the ring's
// shuffled among themselves. A solver that needs laps around the ring
// before it concludes re-raises the downstream chain on every lap.
ConstraintSystem planted_cycle_system(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto pick = [&](int lo, int span) { return lo + static_cast<int>(rng() % span); };
  const int upstream = pick(50, 250);
  const int ring = pick(2, 6);
  const int downstream = pick(50, 250);
  const int n = upstream + ring + downstream;
  std::vector<Coord> x(static_cast<std::size_t>(n));
  std::iota(x.begin(), x.end(), 0);
  std::shuffle(x.begin() + upstream, x.begin() + upstream + ring, rng);
  ConstraintSystem system;
  for (int v = 0; v < n; ++v) {
    system.add_variable(10 * x[static_cast<std::size_t>(v)]);
  }
  const auto weight = [&] { return static_cast<Coord>(pick(1, 9)); };
  system.add_constraint(-1, 0, 0, ConstraintKind::kAnchor);
  const int r0 = upstream;
  for (int v = 0; v < r0; ++v) system.add_constraint(v, v + 1, weight(), ConstraintKind::kSpacing);
  Coord lap = 0;
  for (int k = 0; k + 1 < ring; ++k) {
    const Coord w = weight();
    lap += w;
    system.add_constraint(r0 + k, r0 + k + 1, w, ConstraintKind::kSpacing);
  }
  system.add_constraint(r0 + ring - 1, r0, 1 - lap, ConstraintKind::kSpacing);
  system.add_constraint(r0, r0 + ring, weight(), ConstraintKind::kSpacing);
  for (int v = r0 + ring; v + 1 < n; ++v) {
    system.add_constraint(v, v + 1, weight(), ConstraintKind::kSpacing);
  }
  for (int k = 0; k < n / 4; ++k) {
    const int a = pick(0, n - 1);
    const int b = pick(a + 1, n - a - 1);
    const bool within_chain = b < r0 || a >= r0 + ring;
    if (within_chain) system.add_constraint(a, b, 1, ConstraintKind::kSpacing);
  }
  return system;
}

TEST(CompactScaling, SweepGeneratorMatchesReferenceByteForByte) {
  std::uint32_t seed = 0;
  for (const SynthField& field : equivalence_fields()) {
    ConstraintSystem fast;
    const std::vector<CompactionBox> fast_boxes = to_compaction_boxes(field, fast);
    generate_constraints(fast, fast_boxes, CompactionRules::mosis());

    ConstraintSystem ref;
    const std::vector<CompactionBox> ref_boxes = to_compaction_boxes(field, ref);
    generate_constraints_reference(ref, ref_boxes, CompactionRules::mosis());

    expect_identical_systems(fast, ref, seed);
    ++seed;
  }
}

TEST(CompactScaling, ParallelGenerationMatchesSerialByteForByte) {
  // The per-layer parallel sweep merges partner lists in sweep order, so
  // the emitted constraint stream must be byte-identical to the serial
  // generator — on the property fields and the benchmark grid.
  std::uint32_t seed = 0;
  std::vector<SynthField> fields = property_fields();
  fields.push_back(make_grid_field_of_size(1000));
  for (const SynthField& field : fields) {
    ConstraintSystem parallel;
    const std::vector<CompactionBox> parallel_boxes = to_compaction_boxes(field, parallel);
    generate_constraints_parallel(parallel, parallel_boxes, CompactionRules::mosis(),
                                  /*threads=*/4);

    ConstraintSystem serial;
    const std::vector<CompactionBox> serial_boxes = to_compaction_boxes(field, serial);
    generate_constraints(serial, serial_boxes, CompactionRules::mosis());

    expect_identical_systems(parallel, serial, seed);
    ++seed;
  }
}

TEST(CompactScaling, BandShardedGenerationMatchesSerialByteForByte) {
  // The band-sharded sweep (the incremental engine's reuse unit) must emit
  // the byte-identical constraint stream for ANY band partition: queries
  // and profile extents are clipped to each band, and the per-box merge
  // unions the shards back to the full-layer partner sets.
  std::uint32_t seed = 0;
  for (const SynthField& field : property_fields()) {
    ConstraintSystem serial;
    const std::vector<CompactionBox> serial_boxes = to_compaction_boxes(field, serial);
    generate_constraints(serial, serial_boxes, CompactionRules::mosis());
    for (const int bands : {2, 5, 16}) {
      ConstraintSystem banded;
      const std::vector<CompactionBox> banded_boxes = to_compaction_boxes(field, banded);
      generate_constraints_banded(banded, banded_boxes, CompactionRules::mosis(), bands,
                                  /*threads=*/3);
      expect_identical_systems(banded, serial, seed);
    }
    ++seed;
  }
}

TEST(CompactScaling, BuilderThreadsAreAThroughputKnobOnly) {
  // compact_flat with generation_threads forced past the parallel threshold
  // must reproduce the serial result exactly, rubber band included.
  const SynthField field = make_grid_field_of_size(4000);
  FlatOptions serial_options;
  serial_options.generation_threads = 1;
  const FlatResult serial =
      compact_flat(field.boxes, CompactionRules::mosis(), serial_options, field.stretchable);
  FlatOptions parallel_options;
  parallel_options.generation_threads = 4;
  const FlatResult parallel =
      compact_flat(field.boxes, CompactionRules::mosis(), parallel_options, field.stretchable);
  EXPECT_EQ(serial.boxes, parallel.boxes);
  EXPECT_EQ(serial.width_after, parallel.width_after);
  EXPECT_EQ(serial.constraint_count, parallel.constraint_count);
}

TEST(CompactScaling, WorklistSolversMatchPassBasedExactly) {
  std::uint32_t seed = 0;
  std::size_t infeasible = 0;
  for (const SynthField& field : equivalence_fields()) {
    ConstraintSystem system;
    const std::vector<CompactionBox> boxes = to_compaction_boxes(field, system);
    generate_constraints(system, boxes, CompactionRules::mosis());
    if (!expect_worklist_matches_pass_based(system, "seed " + std::to_string(seed))) {
      ++infeasible;
    }
    ++seed;
  }
  // The stacked corpus must reach the verdict path, not only the solve.
  EXPECT_GT(infeasible, 0u);
}

TEST(CompactScaling, HashedRigidGroupsMatchQuadratic) {
  std::uint32_t seed = 0;
  for (const SynthField& field : property_fields()) {
    ConstraintSystem system;
    const std::vector<CompactionBox> boxes = to_compaction_boxes(field, system);
    generate_constraints(system, boxes, CompactionRules::mosis());

    RigidGroups hashed(system, RigidMatch::kHashed);
    RigidGroups quadratic(system, RigidMatch::kQuadratic);
    for (std::size_t v = 0; v < system.variable_count(); ++v) {
      ASSERT_EQ(hashed.leader(v), quadratic.leader(v)) << "seed " << seed << " var " << v;
      ASSERT_EQ(hashed.offset(v), quadratic.offset(v)) << "seed " << seed << " var " << v;
    }
    ++seed;
  }
}

TEST(CompactScaling, WorklistDetectsPositiveCycle) {
  ConstraintSystem system;
  const int a = system.add_variable(0);
  const int b = system.add_variable(10);
  system.add_constraint(a, b, 5, ConstraintKind::kSpacing);
  system.add_constraint(b, a, 5, ConstraintKind::kSpacing);
  EXPECT_THROW(solve_leftmost_worklist(system), Error);
  std::vector<Coord> upper;
  EXPECT_THROW(solve_rightmost_worklist(system, 100, upper), Error);
  EXPECT_FALSE(expect_worklist_matches_pass_based(system, "two-node cycle"));
}

TEST(CompactScaling, PlantedCyclesAreCertifiedInLinearWork) {
  // The verdict closes on the first lap around the ring: at most 2 (n + m)
  // relaxations, where a |V|-enqueue guard needs |V| laps, each re-raising
  // the downstream chain (over 23 (n + m) on every seed here).
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    const ConstraintSystem system = planted_cycle_system(seed);
    const std::string label = "planted seed " + std::to_string(seed);
    ConstraintSystem pass = system;
    EXPECT_THROW(solve_leftmost(pass, EdgeOrder::kSorted), Error) << label;
    const std::size_t bound = 2 * (system.variable_count() + system.constraint_count());
    ConstraintSystem work = system;
    EXPECT_LE(expect_certified(work, [&] { solve_leftmost_worklist(work); }, label), bound)
        << label;
    std::vector<Coord> upper;
    EXPECT_LE(
        expect_certified(work, [&] { solve_rightmost_worklist(work, 1 << 20, upper); }, label),
        bound)
        << label;
  }
}

TEST(CompactScaling, RamRoundThreeXPassIsCertifiedInfeasible) {
  // ram 16x16's round-3 x pass is the one the best-effort schedule skips:
  // rebuild its system from the geometry round 2 left behind.
  std::vector<std::vector<LayerBox>> rounds;
  production_schedule(ram_geometry(16, 16), &rounds);
  ASSERT_GE(rounds.size(), 3u);
  FlatOptions options;
  Coord width_before = 0;
  std::vector<CompactionBox> boxes =
      normalized_compaction_boxes(rounds[1], options, {}, width_before);
  ConstraintSystem system;
  add_box_variables(system, boxes);
  generate_constraints(system, boxes, CompactionRules::mosis());
  EXPECT_FALSE(expect_worklist_matches_pass_based(system, "ram 16x16 round 3 x"));
}

TEST(CompactScaling, DecoderSolvePopsStayLinearPerRound) {
  // The decoder-pops-per-round pathology: FIFO re-relaxation once spent
  // ~42k dequeues per round on decbits=6's 4,004 variables. Every round's
  // dequeues (both passes) must stay within 4 per variable.
  const std::vector<LayerBox> decoder = decoder_geometry(6);
  const XyScheduleResult result = production_schedule(decoder);
  const std::size_t variables = 2 * decoder.size();
  ASSERT_GE(result.round_stats.size(), 3u);
  for (const RoundStats& round : result.round_stats) {
    EXPECT_LE(round.solve_pops, 4 * variables) << "round " << round.round;
  }
}

TEST(CompactScaling, EndToEndWorklistMatchesPassBasedOnBenchmarkGrid) {
  // The system compact_flat builds for the benchmark grid. The leftmost
  // values and the rightmost upper bounds are everything the rubber band
  // reads, so matching both covers the rubber-banded pass.
  const SynthField field = make_grid_field_of_size(1000);
  FlatOptions options;
  options.apply_rubber_band = true;
  Coord width_before = 0;
  std::vector<CompactionBox> boxes =
      normalized_compaction_boxes(field.boxes, options, field.stretchable, width_before);
  ConstraintSystemBuilder builder(CompactionRules::mosis());
  builder.emit_batch(boxes);
  EXPECT_TRUE(expect_worklist_matches_pass_based(builder.system(), "1k grid"));
  const FlatResult work =
      compact_flat(field.boxes, CompactionRules::mosis(), options, field.stretchable);
  EXPECT_LT(work.width_after, work.width_before);  // the compactor did work
}

}  // namespace
}  // namespace rsg::compact
