// Chapter 6 in action: flat compaction with the rubber-band pass, symbolic
// contact expansion, and leaf-cell compaction as a technology port — the
// library is recompacted under a tighter rule set and a new sample library
// (cells + pitches) is rebuilt from the result (§6.3), then both axes at
// once through the leaf x/y schedule with the dual-simplex engine's
// telemetry on display.
#include <cstdio>
#include <iostream>
#include <string>

#include "compact/flat_compactor.hpp"
#include "compact/layer_expand.hpp"
#include "compact/leaf_compactor.hpp"
#include "compact/synth_design.hpp"
#include "compact/xy_schedule.hpp"
#include "layout/design_rules.hpp"

using namespace rsg;
using namespace rsg::compact;

namespace {

// Whether a pass started from the basis its axis carried over from the
// previous round, and if not, why the engine declined it.
const char* warm_outcome(const LpStats& stats) {
  if (stats.warm_accepted > 0) return "warm adopted";
  if (stats.warm_declined_rows > 0) return "warm declined: rows differ";
  if (stats.warm_declined_singular > 0) return "warm declined: singular basis";
  if (stats.warm_declined_dual > 0) return "warm declined: dual-infeasible";
  return "cold start";
}

// A wall time in milliseconds, to the microsecond.
std::string ms(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f ms", value);
  return buf;
}

}  // namespace

int main() {
  try {
    // --- Flat compaction -----------------------------------------------------
    std::vector<LayerBox> sparse = {
        {Layer::kMetal1, Box(0, 0, 10, 4)},   {Layer::kMetal1, Box(40, 0, 50, 4)},
        {Layer::kPoly, Box(70, -10, 74, 14)}, {Layer::kMetal1, Box(90, 0, 100, 4)},
        {Layer::kDiffusion, Box(120, -4, 140, 10)},
    };
    FlatOptions options;
    options.apply_rubber_band = true;
    const FlatResult flat = compact_flat(sparse, CompactionRules::mosis(), options);
    std::cout << "flat compaction: width " << flat.width_before << " -> " << flat.width_after
              << " (" << flat.constraint_count << " constraints, " << flat.solve.pops
              << " solver pops after the seeding sweep)\n";

    // --- Symbolic contact expansion (Figure 6.9) ------------------------------
    const std::vector<LayerBox> with_contact = {{Layer::kContact, Box(0, 0, 24, 16)}};
    const auto expanded = expand_contacts(with_contact);
    std::cout << "contact 24x16 expands to " << expanded.size() << " mask boxes ("
              << cut_count(Box(0, 0, 24, 16)) << " cuts)\n";

    // --- Leaf-cell technology port (§6.1/§6.3) --------------------------------
    // A leaf cell drawn for a loose process; the pitch between instances is
    // the design-critical quantity, weighted by its replication estimate.
    CellTable cells;
    InterfaceTable interfaces;
    Cell& leaf = cells.create("bitcell");
    leaf.add_box(Layer::kMetal1, Box(0, 0, 10, 4));
    leaf.add_box(Layer::kPoly, Box(14, -6, 18, 10));
    leaf.add_box(Layer::kMetal1, Box(26, 0, 36, 4));
    interfaces.declare("bitcell", "bitcell", 1, Interface{{52, 0}, Orientation::kNorth});

    const std::vector<PitchSpec> specs = {{"bitcell", "bitcell", 1, /*replication=*/256.0}};
    const LeafResult ported =
        compact_leaf_cells(cells, interfaces, {"bitcell"}, specs, CompactionRules::mosis());
    std::cout << "leaf-cell port: pitch " << ported.original_pitches[0] << " -> "
              << ported.pitches[0] << " ("
              << ported.variable_count << " unknowns after folding vs "
              << ported.unfolded_variable_count << " unfolded)\n";
    std::cout << "  LP (dual simplex): " << ported.lp_stats.iterations << " pivots, "
              << ported.lp_stats.dual_pivots << " dual, " << ported.lp_stats.phase1_pivots
              << " phase-1, " << ported.lp_stats.dual_fallbacks << " fallbacks\n";
    std::cout << "a 256-cell row shrinks from " << 256 * ported.original_pitches[0] << " to "
              << 256 * ported.pitches[0] << " units\n";

    // Rebuild the new library — the compacted cells plus pitches become the
    // sample layout for the next technology.
    CellTable new_cells;
    InterfaceTable new_interfaces;
    make_compacted_library(ported, specs, new_cells, new_interfaces);
    std::cout << "rebuilt library: cell 'bitcell' with "
              << new_cells.get("bitcell").box_count() << " boxes, interface #1 pitch "
              << new_interfaces.get("bitcell", "bitcell", 1).vector.x << "\n";

    // --- Leaf x/y schedule (both axes, dual engine) ---------------------------
    // A synthetic 2-D library: horizontal chain pitches plus vertical
    // self-pitches, alternated to a pitch/objective fixpoint.
    const SynthLeafLibrary lib = make_leaf_library_2d(4, 6, /*seed=*/1);
    const LeafXyResult xy = compact_leaf_schedule(lib.cells, lib.interfaces, lib.cell_names,
                                                  lib.pitch_specs, CompactionRules::mosis());
    std::cout << "leaf x/y schedule: " << xy.rounds << " round(s), "
              << (xy.converged ? "converged" : "capped") << "; " << xy.lp_total.iterations
              << " LP pivots total (" << xy.lp_total.dual_pivots << " dual, "
              << xy.lp_total.phase1_pivots << " phase-1, " << xy.lp_total.dual_fallbacks
              << " fallbacks)\n";
    for (const LeafRoundStats& round : xy.round_stats) {
      std::cout << "  round " << round.round << ": x obj " << round.x_objective << " ("
                << round.x_lp.iterations << " piv, " << ms(round.x_lp.refactor_ms)
                << " refactorizing, " << warm_outcome(round.x_lp) << "), y obj "
                << round.y_objective << " (" << round.y_lp.iterations << " piv, "
                << ms(round.y_lp.refactor_ms) << " refactorizing, " << warm_outcome(round.y_lp)
                << ")\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
