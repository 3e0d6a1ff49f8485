// Equivalence property tests for the scaled compaction hot path against
// the test-only oracle (tests/oracle): the blocked segment profile and the
// nets read off its partner lists must emit the byte-identical constraint
// system as the all-pairs/linear-scan reference generator, for every band
// partition, also on profiles deep enough to split and merge blocks; the
// worklist solvers must reproduce the pass-based solutions exactly (the
// least/greatest fixpoints are unique) and certify every infeasible
// verdict; and the hashed rigid-group matcher must build the same groups
// as the all-pairs scan — across 500+ seeded random box fields, the
// structured grid/PLA shapes the benchmarks sweep, and the stacked
// geometry compaction rounds leave behind. On the bundled designs the
// incremental schedule must match the scratch one, every engine pass
// emitting the scratch stream, and its per-round work is pinned. A work
// tripwire keeps the solver's dequeues linear.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>

#include "compact/flat_compactor.hpp"
#include "compact/rigid_groups.hpp"
#include "compact/synth_design.hpp"
#include "compact/xy_schedule.hpp"
#include "io/param_file.hpp"
#include "io/snapshot.hpp"
#include "layout/flatten.hpp"
#include "oracle/pass_based_solvers.hpp"
#include "oracle/quadratic_rigid_groups.hpp"
#include "oracle/reference_generators.hpp"
#include "oracle/scratch_schedule.hpp"
#include "pla/pla_builder.hpp"
#include "pla/truth_table.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"
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

// The constraint stream of `field` swept in `bands` y bands on `threads`
// tasks through the shard API, as the incremental engine drives it.
// generate_constraints picks its band count from its thread count, and only
// on batches of kBandedGenerationMinBoxes boxes or more.
ConstraintSystem banded_constraints(const SynthField& field, int bands, int threads) {
  ConstraintSystem system;
  const std::vector<CompactionBox> boxes = to_compaction_boxes(field, system);
  const SweepOrder order = sweep_order(boxes);
  const std::vector<Coord> cuts = band_cuts(boxes, bands);
  std::vector<SweepShard> shards(static_cast<std::size_t>(kNumLayers) * (cuts.size() - 1));
  std::vector<std::size_t> all(shards.size());
  std::iota(all.begin(), all.end(), 0);
  sweep_shards(boxes, order, CompactionRules::mosis(), cuts, all, shards, threads);
  std::vector<const SweepShard*> views;
  for (const SweepShard& shard : shards) views.push_back(&shard);
  add_width_and_anchor(system, boxes, CompactionRules::mosis());
  emit_pair_constraints(system, boxes, order, CompactionRules::mosis(), views);
  return system;
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
  // Adversarial shapes for the partner-list net finding: a same-x contact
  // column emitted top-to-bottom, and a descending staircase whose x
  // extents all overlap while the y extents never touch.
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
std::vector<LayerBox> design_geometry(
    const std::string& sample, const std::string& design, const std::string& params,
    const std::string& overrides, const std::string& top = "",
    const lang::Interpreter::EncodingTable* encoding = nullptr) {
  GenerationSession session(CompiledDesign::compile(read_text_file(designs_path(sample)),
                                                    read_text_file(designs_path(design))));
  session.set_encoding_table(encoding);
  const GeneratorResult result =
      session.generate(read_text_file(designs_path(params)) + "\n" + overrides, top);
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
    EXPECT_TRUE(oracle::solve_leftmost(pass).converged) << label;
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
    oracle::solve_rightmost(pass, width, pass_upper);
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
    oracle::generate_constraints_reference(ref, ref_boxes, CompactionRules::mosis());

    expect_identical_systems(fast, ref, seed);
    ++seed;
  }
}

TEST(CompactScaling, BandShardedGenerationMatchesSerialByteForByte) {
  // The band-sharded sweep (the parallelism unit of large batches and the
  // incremental engine's reuse unit) must emit the byte-identical
  // constraint stream for ANY band partition: queries and profile extents
  // are clipped to each band, and the per-box merge unions the shards back
  // to the full-layer partner sets — on the property fields and the
  // benchmark grid.
  std::uint32_t seed = 0;
  std::vector<SynthField> fields = property_fields();
  fields.push_back(make_grid_field_of_size(1000));
  for (const SynthField& field : fields) {
    ConstraintSystem serial;
    const std::vector<CompactionBox> serial_boxes = to_compaction_boxes(field, serial);
    generate_constraints(serial, serial_boxes, CompactionRules::mosis());
    for (const int bands : {2, 4, 5, 16}) {
      expect_identical_systems(banded_constraints(field, bands, /*threads=*/3), serial, seed);
    }
    ++seed;
  }
}

// Poly stripes over a diffusion column, listed in a seeded random order:
// stripe k crosses diffusion box k, each at its own jittered x, so the
// sweep interleaves the layers and queries reach across into the other
// layer's profile. Every 40th row also gets a diffusion strap further right
// spanning 120 rows: swept after the rows it covers, each strap collapses
// their segments into one, which drains blocks and merges them.
SynthField striped_column_field(int rows, std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto jitter = [&] { return static_cast<Coord>(rng() % 9); };
  SynthField field;
  for (int k = 0; k < rows; ++k) {
    const Coord y = 20 * static_cast<Coord>(k);
    const Coord d = jitter();
    const Coord p = jitter();
    field.boxes.push_back({Layer::kDiffusion, Box(d, y, d + 10, y + 16)});
    field.boxes.push_back({Layer::kPoly, Box(p - 4, y + 6, p + 14, y + 10)});
    if (k % 40 == 0) field.boxes.push_back({Layer::kDiffusion, Box(30, y, 34, y + 20 * 120)});
  }
  std::shuffle(field.boxes.begin(), field.boxes.end(), rng);
  field.stretchable.assign(field.boxes.size(), false);
  return field;
}

TEST(CompactScaling, DeepProfilesMatchReferenceByteForByte) {
  // The fields above hold profiles of a few dozen segments, which fit in
  // one block of the generator's blocked profile. These two grow to a
  // thousand segments or more in random order, so blocks split, drain and
  // merge: a shuffled one-layer column, and shuffled poly stripes over a
  // diffusion column with straps. The stream must stay the reference
  // generator's at one band and banded.
  const std::vector<SynthField> fields = {make_shuffled_column_field(2000, 7),
                                          striped_column_field(1000, 11)};
  std::uint32_t seed = 0;
  for (const SynthField& field : fields) {
    ConstraintSystem ref;
    const std::vector<CompactionBox> ref_boxes = to_compaction_boxes(field, ref);
    oracle::generate_constraints_reference(ref, ref_boxes, CompactionRules::mosis());

    ConstraintSystem fast;
    const std::vector<CompactionBox> fast_boxes = to_compaction_boxes(field, fast);
    generate_constraints(fast, fast_boxes, CompactionRules::mosis());
    expect_identical_systems(fast, ref, seed);
    for (const int bands : {4, 8}) {
      expect_identical_systems(banded_constraints(field, bands, /*threads=*/2), ref, seed);
    }
    ++seed;
  }
}

TEST(CompactScaling, BuilderThreadsAreAThroughputKnobOnly) {
  // compact_flat with generation_threads on a batch past the banding
  // threshold must reproduce the serial result exactly, rubber band
  // included.
  const SynthField field = make_grid_field_of_size(4000);
  ASSERT_GE(field.boxes.size(), kBandedGenerationMinBoxes);
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

    RigidGroups hashed(system);
    const oracle::RigidPartition quadratic = oracle::quadratic_rigid_groups(system);
    for (std::size_t v = 0; v < system.variable_count(); ++v) {
      ASSERT_EQ(hashed.leader(v), quadratic.leader[v]) << "seed " << seed << " var " << v;
      ASSERT_EQ(hashed.offset(v), quadratic.offset[v]) << "seed " << seed << " var " << v;
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
    EXPECT_THROW(oracle::solve_leftmost(pass), Error) << label;
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

// The designs the stacked fields come from, plus a generated PLA: decoder
// decbits=6, ram 16x16, mult asize=8 and a 3-term PLA.
const std::vector<std::vector<LayerBox>>& schedule_designs() {
  static const std::vector<std::vector<LayerBox>> designs = [] {
    const pla::TruthTable table = pla::TruthTable::parse(
        "10 10\n"
        "01 11\n"
        "-1 01\n");
    return std::vector<std::vector<LayerBox>>{
        decoder_geometry(6), ram_geometry(16, 16),
        design_geometry("mult.sample", "mult.rsg", "mult.par", "asize = 8\n"),
        flatten_boxes(*pla::generate_pla(table).top)};
  }();
  return designs;
}

TEST(CompactScaling, IncrementalScheduleMatchesScratchOnDesigns) {
  // The schedule_designs() under the schedule `.compact:xy` runs: their
  // schedules skip infeasible passes and end in passes that move a handful
  // of boxes, where the incremental engine reuses most shards and the
  // whole width/anchor prefix. The production schedule's geometry must
  // equal the scratch schedule's, and its work the checked one-band
  // schedule's; the checked schedules check every pass's stream against
  // scratch generation, at the production band count (one) and at four.
  const std::vector<std::vector<LayerBox>>& designs = schedule_designs();
  const XyScheduleOptions schedule = CompactionRequest::default_schedule();
  const CompactionRules rules = CompactionRules::mosis();
  int skipped = 0;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const XyScheduleResult want = oracle::scratch_flat_schedule(designs[d], rules, {}, schedule);
    const XyScheduleResult production = compact_flat_schedule(designs[d], rules, {}, schedule);
    ASSERT_EQ(production.boxes, want.boxes) << "design " << d;
    ASSERT_EQ(production.rounds, want.rounds) << "design " << d;
    ASSERT_EQ(production.converged, want.converged) << "design " << d;
    for (const int bands : {1, 4}) {
      const XyScheduleResult got =
          oracle::checked_flat_schedule(designs[d], rules, {}, schedule, {}, bands);
      ASSERT_EQ(got.boxes, want.boxes) << "bands " << bands << " design " << d;
      ASSERT_EQ(got.rounds, want.rounds) << "bands " << bands << " design " << d;
      if (bands == 1) {
        ASSERT_EQ(oracle::round_stats_divergence(production, got), "") << "design " << d;
      }
      for (const RoundStats& round : got.round_stats) {
        skipped += (round.x_skipped ? 1 : 0) + (round.y_skipped ? 1 : 0);
      }
    }
  }
  EXPECT_GT(skipped, 0) << "no schedule skipped an infeasible pass";
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

TEST(CompactScaling, ScheduleWorkIsPinnedOnDesigns) {
  // The production schedule's work on schedule_designs(), round by round.
  // Every counter is deterministic, so a change that alters the constraint
  // stream, the solver's pops, the shard reuse or a warm verdict fails here
  // on any host, whatever it does to the time. A change to the emitted
  // pairs re-pins these rows on purpose.
  struct Work {
    std::size_t constraints;
    std::size_t pops;
    std::size_t reswept;
    std::size_t reused;
    bool warm_x;
    bool warm_y;
    bool x_skipped;
    bool y_skipped;
    Coord width_delta;
    Coord height_delta;
  };
  const std::vector<std::vector<Work>> pinned = {
      {
          {9552, 48, 5987, 0, false, false, true, false, 0, 134},
          {19037, 8, 3955, 0, false, false, false, false, 12, 0},
          {19039, 0, 2687, 1272, false, false, false, false, 0, 0},
          {19039, 0, 1563, 2396, true, true, false, false, 0, 0},
      },
      {
          {12361, 0, 3913, 0, false, false, false, false, 95, 54},
          {11163, 0, 3419, 0, true, false, false, false, 0, 0},
          {5139, 0, 2829, 590, false, false, true, false, 0, -30},
          {8883, 0, 2124, 590, false, false, false, false, 0, 0},
          {9439, 0, 2680, 590, true, true, false, false, 0, 0},
      },
      {
          {5753, 8, 1640, 0, false, false, false, false, -15, 46},
          {6010, 1798, 1988, 0, false, false, false, false, 0, -98},
          {6843, 666, 3263, 254, false, false, false, false, -7, 2},
          {6384, 0, 2804, 254, false, false, false, false, 7, 0},
          {6403, 0, 2823, 254, false, false, false, false, 0, 0},
          {6390, 0, 2810, 254, false, false, false, false, 0, 0},
          {6395, 0, 2815, 254, false, true, false, false, 0, 0},
          {6395, 0, 1281, 1788, true, true, false, false, 0, 0},
      },
      {
          {294, 23, 163, 0, false, false, true, false, 0, 18},
          {595, 1, 142, 0, false, false, false, false, 20, 0},
          {606, 0, 113, 30, true, true, false, false, 0, 0},
      },
  };
  const std::vector<std::vector<LayerBox>>& designs = schedule_designs();
  ASSERT_EQ(designs.size(), pinned.size());
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const XyScheduleResult result = production_schedule(designs[d]);
    ASSERT_EQ(result.round_stats.size(), pinned[d].size()) << "design " << d;
    for (std::size_t r = 0; r < pinned[d].size(); ++r) {
      const RoundStats& got = result.round_stats[r];
      const Work& want = pinned[d][r];
      const std::string at = "design " + std::to_string(d) + " round " + std::to_string(r + 1);
      EXPECT_EQ(got.constraints_emitted, want.constraints) << at;
      EXPECT_EQ(got.solve_pops, want.pops) << at;
      EXPECT_EQ(got.partners_reswept, want.reswept) << at;
      EXPECT_EQ(got.partners_reused, want.reused) << at;
      EXPECT_EQ(got.warm_x, want.warm_x) << at;
      EXPECT_EQ(got.warm_y, want.warm_y) << at;
      EXPECT_EQ(got.x_skipped, want.x_skipped) << at;
      EXPECT_EQ(got.y_skipped, want.y_skipped) << at;
      EXPECT_EQ(got.width_delta, want.width_delta) << at;
      EXPECT_EQ(got.height_delta, want.height_delta) << at;
    }
  }
}

// The inputs of the perfbench `compact` workload at the sizes it measures:
// decoder decbits=8, ram 32x32, mult asize=20, and the 8-input, 8-output,
// 32-term PLA of TruthTable::random(8, 8, 32, 1).
const std::vector<std::vector<LayerBox>>& compact_workload_designs() {
  static const std::vector<std::vector<LayerBox>> designs = [] {
    const lang::Interpreter::EncodingTable encoding =
        pla::to_encoding_table(pla::TruthTable::random(8, 8, 32, 1));
    return std::vector<std::vector<LayerBox>>{
        decoder_geometry(8), ram_geometry(32, 32),
        design_geometry("mult.sample", "mult.rsg", "mult.par", "asize = 20\n"),
        design_geometry("pla.sample", "pla.rsg", "pla.par", "", "pla", &encoding)};
  }();
  return designs;
}

// CRC-32 of a geometry as (layer, lo.x, lo.y, hi.x, hi.y) int64 rows.
std::uint32_t geometry_crc32(const std::vector<LayerBox>& boxes) {
  std::vector<std::int64_t> rows;
  rows.reserve(5 * boxes.size());
  for (const LayerBox& lb : boxes) {
    rows.insert(rows.end(), {static_cast<std::int64_t>(lb.layer), lb.box.lo.x, lb.box.lo.y,
                             lb.box.hi.x, lb.box.hi.y});
  }
  return snapshot_crc32(rows.data(), rows.size() * sizeof(std::int64_t));
}

TEST(CompactScaling, ScheduleWorkIsPinnedOnCompactInputs) {
  // The production schedule's work on compact_workload_designs(), round by
  // round, with the same ten fields as ScheduleWorkIsPinnedOnDesigns, plus
  // the final geometry's box count and CRC-32. These are the sizes the
  // `compact` workload's time is measured on, so a change that claims time
  // there is checked to do the same work on any host.
  struct Work {
    std::size_t constraints;
    std::size_t pops;
    std::size_t reswept;
    std::size_t reused;
    bool warm_x;
    bool warm_y;
    bool x_skipped;
    bool y_skipped;
    Coord width_delta;
    Coord height_delta;
  };
  struct Pin {
    std::size_t boxes;
    std::uint32_t crc32;
    std::vector<Work> rounds;
  };
  const std::vector<Pin> pinned = {
      {10520,
       0x7bf56eb1u,
       {
           {50284, 73, 32049, 0, false, false, true, false, 0, 518},
           {100393, 12, 20891, 0, false, false, false, false, 12, 0},
           {100393, 0, 14251, 6646, false, false, false, false, 0, 0},
           {100393, 0, 8229, 12668, true, true, false, false, 0, 0},
       }},
      {3200,
       0x49c9e39eu,
       {
           {48281, 0, 15513, 0, false, false, false, false, 191, 86},
           {43323, 0, 13499, 0, true, false, false, false, 0, 0},
           {20003, 0, 11293, 2206, false, false, true, false, 0, -62},
           {34147, 0, 8348, 2206, false, false, false, false, 0, 0},
           {36475, 0, 10676, 2206, true, true, false, false, 0, 0},
       }},
      {2880,
       0x83c7ca4du,
       {
           {34907, 20, 10226, 0, false, false, false, false, -39, 118},
           {36454, 12976, 12476, 0, false, false, false, false, 0, -314},
           {50336, 5117, 29380, 1598, false, false, false, false, -19, 2},
           {43014, 0, 22058, 1598, false, false, false, false, 19, 0},
           {43700, 0, 22744, 1598, false, false, false, false, 0, 0},
           {43824, 0, 22868, 1598, false, false, false, false, 0, 0},
           {43890, 0, 22934, 1598, false, false, false, false, 0, 0},
           {43859, 0, 22903, 1598, false, false, false, false, 0, 0},
       }},
      {1940,
       0xcb50bbb4u,
       {
           {10037, 711, 6532, 0, false, false, true, false, 0, 78},
           {19983, 19, 5133, 0, false, false, false, false, 56, 0},
           {19999, 7, 3993, 1146, false, false, false, false, 0, 0},
           {19769, 0, 2677, 2232, true, true, false, false, 0, 0},
       }},
  };
  const std::vector<std::vector<LayerBox>>& designs = compact_workload_designs();
  ASSERT_EQ(designs.size(), pinned.size());
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const XyScheduleResult result = production_schedule(designs[d]);
    EXPECT_EQ(result.boxes.size(), pinned[d].boxes) << "design " << d;
    EXPECT_EQ(geometry_crc32(result.boxes), pinned[d].crc32) << "design " << d;
    ASSERT_EQ(result.round_stats.size(), pinned[d].rounds.size()) << "design " << d;
    for (std::size_t r = 0; r < pinned[d].rounds.size(); ++r) {
      const RoundStats& got = result.round_stats[r];
      const Work& want = pinned[d].rounds[r];
      const std::string at = "design " + std::to_string(d) + " round " + std::to_string(r + 1);
      EXPECT_EQ(got.constraints_emitted, want.constraints) << at;
      EXPECT_EQ(got.solve_pops, want.pops) << at;
      EXPECT_EQ(got.partners_reswept, want.reswept) << at;
      EXPECT_EQ(got.partners_reused, want.reused) << at;
      EXPECT_EQ(got.warm_x, want.warm_x) << at;
      EXPECT_EQ(got.warm_y, want.warm_y) << at;
      EXPECT_EQ(got.x_skipped, want.x_skipped) << at;
      EXPECT_EQ(got.y_skipped, want.y_skipped) << at;
      EXPECT_EQ(got.width_delta, want.width_delta) << at;
      EXPECT_EQ(got.height_delta, want.height_delta) << at;
    }
  }
}

}  // namespace
}  // namespace rsg::compact
