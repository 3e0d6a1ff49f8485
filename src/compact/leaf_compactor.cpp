#include "compact/leaf_compactor.hpp"

#include <algorithm>
#include <cmath>

#include "compact/flat_compactor.hpp"  // transposed_boxes
#include "layout/flatten.hpp"
#include "support/error.hpp"

namespace rsg::compact {

namespace {

bool layer_in(const std::vector<Layer>& layers, Layer layer) {
  return std::find(layers.begin(), layers.end(), layer) != layers.end();
}

struct BatchVars {
  std::vector<bool> stretchable;  // per box
};

std::vector<CompactionBox> cell_batch(const LeafCellVars& cv,
                                      const std::vector<bool>& stretchable) {
  std::vector<CompactionBox> batch;
  batch.reserve(cv.boxes.size());
  for (std::size_t b = 0; b < cv.boxes.size(); ++b) {
    CompactionBox cb;
    cb.geometry = cv.boxes[b];
    cb.left_var = cv.left_vars[b];
    cb.right_var = cv.right_vars[b];
    cb.stretchable = stretchable[b];
    batch.push_back(cb);
  }
  return batch;
}

}  // namespace

LeafLpModel build_leaf_lp(const CellTable& cells, const InterfaceTable& interfaces,
                          const std::vector<std::string>& cell_names,
                          const std::vector<PitchSpec>& pitch_specs, const CompactionRules& rules,
                          double width_weight, const std::vector<Layer>& stretchable_layers) {
  LeafLpModel model;
  ConstraintSystemBuilder builder(rules);
  ConstraintSystem& system = builder.system();
  std::map<std::string, BatchVars> batch_vars;

  // One shared set of edge variables per CELL — the folding that forces
  // "all instances of a cell A in the final layout [to] have exactly the
  // same geometry" (§6.1).
  for (const std::string& name : cell_names) {
    const Cell& cell = cells.get(name);
    LeafCellVars cv;
    BatchVars bv;
    cv.boxes = flatten_boxes(cell);
    if (cv.boxes.empty()) throw Error("leaf compaction: cell '" + name + "' has no geometry");
    for (std::size_t b = 0; b < cv.boxes.size(); ++b) {
      const Box& box = cv.boxes[b].box;
      if (box.lo.x < 0) {
        throw Error("leaf compaction: cell '" + name +
                    "' has boxes at negative local x; shift the cell first");
      }
      cv.left_vars.push_back(system.add_variable(box.lo.x));
      cv.right_vars.push_back(system.add_variable(box.hi.x));
      bv.stretchable.push_back(layer_in(stretchable_layers, cv.boxes[b].layer));
    }
    model.cells.emplace(name, std::move(cv));
    batch_vars.emplace(name, std::move(bv));
  }

  // Intra-cell constraints (Fig 6.3's solid edges).
  for (const std::string& name : cell_names) {
    std::vector<CompactionBox> batch =
        cell_batch(model.cells.at(name), batch_vars.at(name).stretchable);
    builder.emit_batch(batch);
  }

  // Pitch variables + inter-cell constraints from each interface's pair
  // layout (Fig 6.3's arc edges, folded through λ).
  for (std::size_t s = 0; s < pitch_specs.size(); ++s) {
    const PitchSpec& spec = pitch_specs[s];
    const Interface iface = interfaces.get(spec.cell_a, spec.cell_b, spec.interface_index);
    if (!(iface.orientation == Orientation::kNorth)) {
      throw Error("leaf compaction handles North-oriented interfaces only (1-D model)");
    }
    if (iface.vector.x <= 0) {
      throw Error("leaf compaction requires a positive x pitch between '" + spec.cell_a +
                  "' and '" + spec.cell_b + "'");
    }
    const int pitch = system.add_pitch(iface.vector.x);
    model.pitch_ids.push_back(pitch);
    model.original_pitches.push_back(iface.vector.x);
    model.pitch_y.push_back(iface.vector.y);

    const LeafCellVars& cva = model.cells.at(spec.cell_a);
    const LeafCellVars& cvb = model.cells.at(spec.cell_b);
    model.unfolded_variable_count += 2 * (cva.boxes.size() + cvb.boxes.size());

    // Pair layout: A at the origin (coeff 0), B at (λ, V.y) (coeff 1).
    // Instance copies SHARE the cell variables; the scan line then emits
    // inter-cell constraints already folded through λ.
    std::vector<CompactionBox> pair =
        cell_batch(cva, batch_vars.at(spec.cell_a).stretchable);
    for (std::size_t b = 0; b < cvb.boxes.size(); ++b) {
      CompactionBox cb;
      cb.geometry = cvb.boxes[b];
      cb.geometry.box = cb.geometry.box.translated({iface.vector.x, iface.vector.y});
      cb.left_var = cvb.left_vars[b];
      cb.right_var = cvb.right_vars[b];
      cb.stretchable = batch_vars.at(spec.cell_b).stretchable[b];
      cb.pitch = pitch;
      cb.pitch_coeff = 1;
      pair.push_back(cb);
    }
    builder.emit_batch(pair);
  }

  // LP: minimize Σ weight_s λ_s + width_weight Σ (R - L), subject to the
  // constraint system rewritten as  X_from - X_to - k λ <= -w  with all
  // variables >= 0. The width term is carried by one auxiliary column per
  // box — W >= R - L with cost +width_weight — instead of the literal
  // +R/-L cost pair: at any optimum W = R - L so the value is identical,
  // but the objective stays COMPONENTWISE NONNEGATIVE, which is what makes
  // the all-slack basis dual-feasible as it stands (a -width_weight
  // left-edge cost would rest that column on a working bound instead).
  model.lp = builder.to_lp();
  for (const std::string& name : cell_names) {
    const LeafCellVars& cv = model.cells.at(name);
    for (std::size_t b = 0; b < cv.boxes.size(); ++b) {
      const int width_col = model.lp.num_vars++;
      model.lp.objective.push_back(width_weight);
      LpConstraint width;  // R - L - W <= 0
      width.terms.emplace_back(builder.edge_column(cv.right_vars[b]), 1.0);
      width.terms.emplace_back(builder.edge_column(cv.left_vars[b]), -1.0);
      width.terms.emplace_back(width_col, -1.0);
      width.rhs = 0.0;
      model.lp.constraints.push_back(std::move(width));
    }
  }
  for (std::size_t s = 0; s < pitch_specs.size(); ++s) {
    model.lp.objective[static_cast<std::size_t>(builder.pitch_column(model.pitch_ids[s]))] +=
        pitch_specs[s].replication_weight;
  }

  // Gauge fixing: pin each cell's originally-leftmost edge to x = 0. A
  // cell's frame (origin) is otherwise a free gauge the LP would exploit —
  // drifting a cell's content rightward relative to its origin shrinks an
  // incoming pitch without shrinking the physical layout. Pinning the
  // leftmost box keeps origin-to-content offsets honest; the combination
  // with the implicit X >= 0 makes it an equality.
  for (const std::string& name : cell_names) {
    const LeafCellVars& cv = model.cells.at(name);
    std::size_t leftmost = 0;
    for (std::size_t b = 1; b < cv.boxes.size(); ++b) {
      if (cv.boxes[b].box.lo.x < cv.boxes[leftmost].box.lo.x) leftmost = b;
    }
    LpConstraint pin;
    pin.terms.emplace_back(cv.left_vars[leftmost], 1.0);
    pin.rhs = 0.0;
    model.lp.constraints.push_back(std::move(pin));
  }
  model.system = std::move(builder.system());
  return model;
}

LeafResult solve_leaf_model(const LeafLpModel& model, LpWarmStart* warm) {
  LeafResult result;
  result.original_pitches = model.original_pitches;
  result.pitch_y = model.pitch_y;
  result.variable_count = model.system.variable_count() + model.system.pitch_count();
  result.unfolded_variable_count = model.unfolded_variable_count;
  result.constraint_count = model.system.constraint_count();

  const LpSolution solution = solve_lp(model.lp, warm);
  result.lp_stats = solution.stats;
  if (!solution.feasible) throw Error("leaf compaction: constraint system infeasible");
  if (!solution.bounded) throw Error("leaf compaction: objective unbounded (missing anchors)");
  result.objective = solution.objective;

  // Round and verify. Edge positions round to nearest; a failed
  // verification relaxes the pitches upward (always feasible for spacing-
  // style systems) before giving up.
  ConstraintSystem system = model.system;
  const std::size_t num_edges = system.variable_count();
  for (std::size_t v = 0; v < num_edges; ++v) {
    system.values[v] = static_cast<Coord>(std::llround(solution.x[v]));
  }
  for (std::size_t p = 0; p < system.pitch_count(); ++p) {
    system.pitch_values[p] = static_cast<Coord>(std::llround(solution.x[num_edges + p]));
  }
  for (int attempt = 0; attempt < 4 && !system.satisfied(); ++attempt) {
    for (Coord& pitch : system.pitch_values) ++pitch;
  }
  if (!system.satisfied()) {
    throw Error("leaf compaction: rounding produced an infeasible layout");
  }

  for (const auto& [name, cv] : model.cells) {
    std::vector<LayerBox> out;
    for (std::size_t b = 0; b < cv.boxes.size(); ++b) {
      const Coord left = system.values[static_cast<std::size_t>(cv.left_vars[b])];
      const Coord right = system.values[static_cast<std::size_t>(cv.right_vars[b])];
      out.push_back(
          {cv.boxes[b].layer, Box(left, cv.boxes[b].box.lo.y, right, cv.boxes[b].box.hi.y)});
    }
    result.cells.emplace(name, std::move(out));
  }
  for (const int pitch_id : model.pitch_ids) {
    result.pitches.push_back(system.pitch_values[static_cast<std::size_t>(pitch_id)]);
  }
  return result;
}

LeafResult compact_leaf_cells(const CellTable& cells, const InterfaceTable& interfaces,
                              const std::vector<std::string>& cell_names,
                              const std::vector<PitchSpec>& pitch_specs,
                              const CompactionRules& rules, double width_weight,
                              const std::vector<Layer>& stretchable_layers,
                              LpWarmStart* warm) {
  return solve_leaf_model(build_leaf_lp(cells, interfaces, cell_names, pitch_specs, rules,
                                        width_weight, stretchable_layers),
                          warm);
}

LeafResult compact_leaf_cells_y(const CellTable& cells, const InterfaceTable& interfaces,
                                const std::vector<std::string>& cell_names,
                                const std::vector<PitchSpec>& pitch_specs,
                                const CompactionRules& rules, double width_weight,
                                const std::vector<Layer>& stretchable_layers,
                                LpWarmStart* warm) {
  // Transpose the library: every cell's flattened geometry axis-swapped,
  // every spec'd interface's pitch vector component-swapped. The mirrored
  // preconditions are checked HERE so the errors name the y axis instead
  // of surfacing as confusing transposed-x complaints.
  CellTable tcells;
  for (const std::string& name : cell_names) {
    const std::vector<LayerBox> flat = flatten_boxes(cells.get(name));
    for (const LayerBox& lb : flat) {
      if (lb.box.lo.y < 0) {
        throw Error("leaf y-compaction: cell '" + name +
                    "' has boxes at negative local y; shift the cell first");
      }
    }
    Cell& tcell = tcells.create(name);
    for (const LayerBox& lb : transposed_boxes(flat)) tcell.add_box(lb.layer, lb.box);
  }
  InterfaceTable tinterfaces;
  for (const PitchSpec& spec : pitch_specs) {
    const Interface iface = interfaces.get(spec.cell_a, spec.cell_b, spec.interface_index);
    if (iface.vector.y <= 0) {
      throw Error("leaf y-compaction requires a positive y pitch between '" + spec.cell_a +
                  "' and '" + spec.cell_b + "'");
    }
    tinterfaces.declare(spec.cell_a, spec.cell_b, spec.interface_index,
                        Interface{{iface.vector.y, iface.vector.x}, iface.orientation});
  }

  LeafResult result = compact_leaf_cells(tcells, tinterfaces, cell_names, pitch_specs, rules,
                                         width_weight, stretchable_layers, warm);
  // Transpose back: x in the solved frame is y in the caller's. The pitch
  // bookkeeping already reads correctly — `pitches` carries the optimized
  // (transposed-x = real-y) values, `pitch_y` the untouched x components.
  for (auto& [name, boxes] : result.cells) boxes = transposed_boxes(boxes);
  result.y_axis = true;
  return result;
}

void make_compacted_library(const LeafResult& result, const std::vector<PitchSpec>& pitch_specs,
                            CellTable& out_cells, InterfaceTable& out_interfaces) {
  for (const auto& [name, boxes] : result.cells) {
    Cell& cell = out_cells.create(name);
    for (const LayerBox& lb : boxes) cell.add_box(lb.layer, lb.box);
  }
  for (std::size_t s = 0; s < pitch_specs.size(); ++s) {
    const PitchSpec& spec = pitch_specs[s];
    // A y result's bookkeeping is mirrored: `pitches` are the optimized y
    // values, `pitch_y` the untouched x components.
    const Point vector = result.y_axis ? Point{result.pitch_y[s], result.pitches[s]}
                                       : Point{result.pitches[s], result.pitch_y[s]};
    out_interfaces.declare(spec.cell_a, spec.cell_b, spec.interface_index,
                           Interface{vector, Orientation::kNorth});
  }
}

}  // namespace rsg::compact
