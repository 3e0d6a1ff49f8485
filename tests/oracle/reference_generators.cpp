#include "oracle/reference_generators.hpp"

#include <algorithm>
#include <numeric>

#include "compact/bellman_ford.hpp"

namespace rsg::compact::oracle {

namespace {

// Each box's net label: union-find over every touching same-layer pair.
std::vector<std::size_t> all_pairs_nets(const std::vector<CompactionBox>& boxes) {
  std::vector<std::size_t> parent(boxes.size());
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::size_t v) {
    while (parent[v] != v) v = parent[v];
    return v;
  };
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (std::size_t j = i + 1; j < boxes.size(); ++j) {
      if (boxes[i].geometry.layer == boxes[j].geometry.layer &&
          boxes[i].geometry.box.abuts_or_intersects(boxes[j].geometry.box)) {
        parent[find(i)] = find(j);
      }
    }
  }
  std::vector<std::size_t> net(boxes.size());
  for (std::size_t v = 0; v < net.size(); ++v) net[v] = find(v);
  return net;
}

// Per-layer visibility profile: disjoint y segments, each remembering the
// box a left-looking viewer sees there (Figure 6.7). Every query and insert
// scans the whole segment list.
class LinearProfile {
 public:
  struct Segment {
    Coord y0;
    Coord y1;
    std::size_t box;
  };

  void query(Coord y0, Coord y1, std::vector<std::size_t>& seen) const {
    for (const Segment& s : segments_) {
      if (s.y1 > y0 && s.y0 < y1) seen.push_back(s.box);
    }
  }

  // Inserts [y0, y1) -> box. Where the range overlaps an existing segment,
  // the box whose right edge reaches further stays visible.
  void insert(Coord y0, Coord y1, std::size_t box,
              const std::vector<CompactionBox>& boxes) {
    std::vector<Segment> next;
    std::vector<Segment> pieces{{y0, y1, box}};
    for (const Segment& s : segments_) {
      if (s.y1 <= y0 || s.y0 >= y1) {
        next.push_back(s);
        continue;
      }
      // Split the existing segment around the overlap.
      if (s.y0 < y0) next.push_back({s.y0, y0, s.box});
      if (s.y1 > y1) next.push_back({y1, s.y1, s.box});
      const Coord o0 = std::max(s.y0, y0);
      const Coord o1 = std::min(s.y1, y1);
      if (boxes[s.box].geometry.box.hi.x > boxes[box].geometry.box.hi.x) {
        // The old box still sticks out further right: it stays visible in
        // the overlap, and the new box's piece there is dropped.
        next.push_back({o0, o1, s.box});
        std::vector<Segment> remaining;
        for (Segment& piece : pieces) {
          if (piece.y1 <= o0 || piece.y0 >= o1) {
            remaining.push_back(piece);
            continue;
          }
          if (piece.y0 < o0) remaining.push_back({piece.y0, o0, piece.box});
          if (piece.y1 > o1) remaining.push_back({o1, piece.y1, piece.box});
        }
        pieces = std::move(remaining);
      }
    }
    for (const Segment& piece : pieces) {
      if (piece.y0 < piece.y1) next.push_back(piece);
    }
    segments_ = std::move(next);
  }

 private:
  std::vector<Segment> segments_;
};

Coord y_gap(const Box& a, const Box& b) {
  return std::max<Coord>({a.lo.y - b.hi.y, b.lo.y - a.hi.y, 0});
}

}  // namespace

void generate_constraints_reference(ConstraintSystem& system,
                                    const std::vector<CompactionBox>& boxes,
                                    const CompactionRules& rules) {
  const std::vector<std::size_t> net = all_pairs_nets(boxes);
  add_width_and_anchor(system, boxes, rules);
  const SweepOrder order = sweep_order(boxes);

  // Partner discovery, one profile layer at a time: every box queries the
  // layer's profile through its window onto the layer, then the layer's
  // own boxes enter it. seen[p] collects the partners of sweep position p.
  std::vector<std::vector<std::size_t>> seen(order.size());
  for (int layer = 0; layer < kNumLayers; ++layer) {
    LinearProfile profile;
    for (std::size_t p = 0; p < order.size(); ++p) {
      const CompactionBox& b = boxes[order[p]];
      Coord y0 = 0;
      Coord y1 = 0;
      if (layer_window(b, layer, rules, y0, y1)) profile.query(y0, y1, seen[p]);
      if (static_cast<int>(b.geometry.layer) == layer) {
        profile.insert(b.geometry.box.lo.y, b.geometry.box.hi.y, order[p], boxes);
      }
    }
  }

  // The merge: per box in sweep order, its partners sorted and
  // deduplicated across layers.
  for (std::size_t p = 0; p < order.size(); ++p) {
    std::vector<std::size_t>& partners = seen[p];
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()), partners.end());
    for (const std::size_t ia : partners) {
      if (ia != order[p]) detail::emit_pair_constraint(system, boxes, ia, order[p], rules, net);
    }
  }
}

void generate_constraints_naive(ConstraintSystem& system,
                                const std::vector<CompactionBox>& boxes,
                                const CompactionRules& rules) {
  add_width_and_anchor(system, boxes, rules);
  // "Indiscriminately generating the constraint between those two edges ...
  // can substantially overconstrain the system" (§6.4.1): every same-layer
  // or interacting pair within spacing distance in y gets a spacing
  // constraint — abutting same-net fragments included (Figure 6.5).
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (std::size_t j = 0; j < boxes.size(); ++j) {
      if (i == j) continue;
      const CompactionBox& a = boxes[i];
      const CompactionBox& b = boxes[j];
      if (a.geometry.box.lo.x > b.geometry.box.lo.x) continue;  // ordered once
      if (a.geometry.box.lo.x == b.geometry.box.lo.x && i > j) continue;
      const Coord s = rules.spacing(a.geometry.layer, b.geometry.layer);
      if (s <= 0) continue;
      if (y_gap(a.geometry.box, b.geometry.box) >= s) continue;
      Constraint c;
      c.from = a.right_var;
      c.to = b.left_var;
      c.weight = s;
      c.kind = ConstraintKind::kSpacing;
      system.add_constraint(c);
    }
  }
}

FlatResult compact_flat_naive(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                              const std::vector<bool>& stretchable) {
  FlatResult result;
  std::vector<CompactionBox> cboxes =
      normalized_compaction_boxes(boxes, {}, stretchable, result.width_before);
  ConstraintSystem system;
  add_box_variables(system, cboxes);
  generate_constraints_naive(system, cboxes, rules);
  result.constraint_count = system.constraint_count();
  result.variable_count = system.variable_count();
  result.solve = solve_leftmost_worklist(system);
  for (const CompactionBox& cb : cboxes) {
    const Coord left = system.values[static_cast<std::size_t>(cb.left_var)];
    const Coord right = system.values[static_cast<std::size_t>(cb.right_var)];
    result.boxes.push_back(
        {cb.geometry.layer, Box(left, cb.geometry.box.lo.y, right, cb.geometry.box.hi.y)});
    result.width_after = std::max(result.width_after, right);
  }
  return result;
}

}  // namespace rsg::compact::oracle
