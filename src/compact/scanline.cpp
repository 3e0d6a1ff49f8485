#include "compact/scanline.hpp"

#include <algorithm>
#include <future>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "compact/radix_sort.hpp"
#include "support/error.hpp"

namespace rsg::compact {

namespace {

Coord y_gap(const Box& a, const Box& b) {
  return std::max<Coord>({a.lo.y - b.hi.y, b.lo.y - a.hi.y, 0});
}

// Per-layer visibility profile: disjoint y segments in y order, each
// remembering the box a left-looking viewer sees there (Figure 6.7).
// Where a new box overlaps a segment, the box whose right edge reaches
// further stays visible (the new box on ties); adjacent same-box segments
// of one insert are coalesced. The test oracle's linear segment list
// (tests/oracle) sees the same box at every y point.
//
// The segments live in blocks of at most kBlock contiguous entries, with a
// sorted index of each block's first start: a query or insert searches the
// index and one block, walks the k segments it overlaps, and splices at
// most a block's worth of entries, so each costs O(log n + k + kBlock)
// however the inserts are ordered. A splice that would overfill a block
// splits it, one that would leave it under a quarter full merges it with a
// neighbor, so every block but a sole one stays at least a quarter full.
// The profiles of the bundled designs (tens of segments) fit in one block.
class OrderedProfile {
 public:
  void query(Coord y0, Coord y1, std::vector<std::size_t>& seen) const {
    if (y0 >= y1) return;
    for (Pos p = first_overlapping(y0); p.block < blocks_.size(); ++p.block, p.at = 0) {
      const std::vector<Segment>& s = blocks_[p.block].segments;
      for (; p.at < s.size(); ++p.at) {
        if (s[p.at].y0 >= y1) return;
        seen.push_back(s[p.at].box);
      }
    }
  }

  void insert(Coord y0, Coord y1, std::size_t box,
              const std::vector<CompactionBox>& boxes) {
    if (y0 >= y1) return;
    const Coord new_reach = boxes[box].geometry.box.hi.x;

    // Walk the run [first, last) of segments overlapping [y0, y1) and
    // rebuild it left to right: kept flanks of split segments, the
    // contested overlaps (further right edge wins, new box on ties), and
    // the gaps in between (always the new box).
    rebuilt_.clear();
    auto emit = [&](Coord a, Coord b, std::size_t bx) {
      if (a >= b) return;
      if (!rebuilt_.empty() && rebuilt_.back().box == bx && rebuilt_.back().y1 == a) {
        rebuilt_.back().y1 = b;
        return;
      }
      rebuilt_.push_back({a, b, bx});
    };
    const Pos first = first_overlapping(y0);
    Pos last = first;
    Coord cursor = y0;
    while (last.block < blocks_.size()) {
      const Segment& s = blocks_[last.block].segments[last.at];
      if (s.y0 >= y1) break;
      if (s.y0 < y0) emit(s.y0, y0, s.box);
      emit(cursor, std::max(cursor, s.y0), box);
      const Coord o0 = std::max(s.y0, y0);
      const Coord o1 = std::min(s.y1, y1);
      const bool old_wins = boxes[s.box].geometry.box.hi.x > new_reach;
      emit(o0, o1, old_wins ? s.box : box);
      if (s.y1 > y1) emit(y1, s.y1, s.box);
      cursor = o1;
      if (++last.at == blocks_[last.block].segments.size()) {
        ++last.block;
        last.at = 0;
      }
    }
    emit(cursor, y1, box);
    replace(first, last);
  }

 private:
  static constexpr std::size_t kBlock = 128;

  struct Segment {
    Coord y0;
    Coord y1;
    std::size_t box;
  };
  // A block in y order: its first segment's start and its segments.
  struct Block {
    Coord start;
    std::vector<Segment> segments;
  };
  // A segment's place: blocks_[block], entry `at`; {blocks_.size(), 0} is
  // the end. Every other position has `at` inside its block.
  struct Pos {
    std::size_t block;
    std::size_t at;
  };

  // The first segment ending above y0: the last one starting at or below
  // y0 if it reaches past it, else the next.
  Pos first_overlapping(Coord y0) const {
    const auto b = static_cast<std::size_t>(
        std::upper_bound(blocks_.begin(), blocks_.end(), y0,
                         [](Coord y, const Block& block) { return y < block.start; }) -
        blocks_.begin());
    if (b == 0) return {0, 0};
    const std::vector<Segment>& s = blocks_[b - 1].segments;
    // Branch-free search for the last start <= y0; the block's first
    // start is <= y0.
    const Segment* at = s.data();
    for (std::size_t len = s.size(); len > 1;) {
      const std::size_t half = len / 2;
      at = at[half].y0 <= y0 ? at + half : at;
      len -= half;
    }
    const auto i = static_cast<std::size_t>(at - s.data());
    if (at->y1 > y0) return {b - 1, i};
    if (i + 1 < s.size()) return {b - 1, i + 1};
    return {b, 0};
  }

  // Replaces the run [first, last) with rebuilt_ (never empty).
  void replace(Pos first, Pos last) {
    if (blocks_.empty()) {
      // The first insert: one empty block to splice into.
      blocks_.push_back({0, {}});
    }
    // The run as block b from entry i through block b2 up to entry j.
    std::size_t b = first.block;
    std::size_t i = first.at;
    std::size_t b2 = last.block;
    std::size_t j = last.at;
    if (first.block == blocks_.size() ||
        (first.at == 0 && first.block > 0 && last.block == first.block && last.at == 0)) {
      // An insert between blocks (or past the last) appends to the block
      // before, which keeps the index as it is.
      b = b2 = first.block - 1;
      i = j = blocks_[b].segments.size();
    } else if (last.at == 0 && last.block > b) {
      b2 = last.block - 1;
      j = blocks_[b2].segments.size();
    }
    const std::size_t r = rebuilt_.size();
    if (b == b2) {
      std::vector<Segment>& s = blocks_[b].segments;
      const std::size_t n = s.size() - (j - i) + r;
      if (n <= kBlock && (n >= kBlock / 4 || blocks_.size() == 1)) {
        const std::size_t common = std::min(r, j - i);
        std::copy(rebuilt_.begin(), rebuilt_.begin() + static_cast<std::ptrdiff_t>(common),
                  s.begin() + static_cast<std::ptrdiff_t>(i));
        if (r > common) {
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(j),
                   rebuilt_.begin() + static_cast<std::ptrdiff_t>(common), rebuilt_.end());
        } else {
          s.erase(s.begin() + static_cast<std::ptrdiff_t>(i + r),
                  s.begin() + static_cast<std::ptrdiff_t>(j));
        }
        blocks_[b].start = s.front().y0;
        return;
      }
    }
    rebalance(b, i, b2, j);
  }

  // The general splice: the blocks b..b2 with their run replaced, plus a
  // neighbor when that leaves under a quarter block, are redistributed
  // evenly over as few blocks as hold them.
  void rebalance(std::size_t b, std::size_t i, std::size_t b2, std::size_t j) {
    const std::vector<Segment>& head = blocks_[b].segments;
    const std::vector<Segment>& tail = blocks_[b2].segments;
    spill_.assign(head.begin(), head.begin() + static_cast<std::ptrdiff_t>(i));
    spill_.insert(spill_.end(), rebuilt_.begin(), rebuilt_.end());
    spill_.insert(spill_.end(), tail.begin() + static_cast<std::ptrdiff_t>(j), tail.end());
    erase_blocks(b, b2 + 1);
    if (spill_.size() < kBlock / 4) {
      if (b < blocks_.size()) {
        const std::vector<Segment>& next = blocks_[b].segments;
        spill_.insert(spill_.end(), next.begin(), next.end());
        erase_blocks(b, b + 1);
      } else if (b > 0) {
        --b;
        const std::vector<Segment>& prev = blocks_[b].segments;
        spill_.insert(spill_.begin(), prev.begin(), prev.end());
        erase_blocks(b, b + 1);
      }
    }
    const std::size_t m = (spill_.size() + kBlock - 1) / kBlock;
    std::size_t from = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t to = spill_.size() * (k + 1) / m;
      blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(b + k),
                     Block{spill_[from].y0,
                           {spill_.begin() + static_cast<std::ptrdiff_t>(from),
                            spill_.begin() + static_cast<std::ptrdiff_t>(to)}});
      from = to;
    }
  }

  void erase_blocks(std::size_t b, std::size_t e) {
    blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(b),
                  blocks_.begin() + static_cast<std::ptrdiff_t>(e));
  }

  std::vector<Block> blocks_;     // in y order
  std::vector<Segment> rebuilt_;  // scratch, reused across inserts
  std::vector<Segment> spill_;
};

}  // namespace

namespace detail {

void emit_pair_constraint(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                          std::size_t ia, std::size_t ib, const CompactionRules& rules,
                          const std::vector<std::size_t>& net) {
  const CompactionBox& a = boxes[ia];
  const CompactionBox& b = boxes[ib];
  const Layer la = a.geometry.layer;
  const Layer lb = b.geometry.layer;
  const Coord s = rules.spacing(la, lb);

  auto constrain = [&](int from_var, int from_pitch, int from_coeff, int to_var, int to_pitch,
                       int to_coeff, Coord weight, ConstraintKind kind) {
    // X_to + to_coeff*λ_to - (X_from + from_coeff*λ_from) >= weight. The
    // solvers support a single pitch term per constraint; both endpoints in
    // the same instance cancel, otherwise exactly one side carries λ (the
    // Figure 6.3 folding). Opposing distinct pitches are rejected.
    Constraint c;
    c.from = from_var;
    c.to = to_var;
    c.weight = weight;
    c.kind = kind;
    if (from_pitch == to_pitch) {
      if (from_coeff != to_coeff && from_pitch >= 0) {
        throw Error("scanline: conflicting pitch coefficients on one constraint");
      }
    } else if (from_pitch < 0) {
      c.pitch = to_pitch;
      c.pitch_coeff = to_coeff;
    } else if (to_pitch < 0) {
      c.pitch = from_pitch;
      c.pitch_coeff = -from_coeff;
    } else {
      throw Error("scanline: constraint spans two distinct pitch variables");
    }
    system.add_constraint(c);
  };

  if (la == lb && net[ia] == net[ib]) {
    if (a.geometry.box.abuts_or_intersects(b.geometry.box)) {
      // Electrical continuity: b must keep touching a, and the left-edge
      // order is preserved so the net cannot turn itself inside out.
      constrain(b.left_var, b.pitch, b.pitch_coeff, a.right_var, a.pitch, a.pitch_coeff, 0,
                ConstraintKind::kConnect);
      constrain(a.left_var, a.pitch, a.pitch_coeff, b.left_var, b.pitch, b.pitch_coeff, 0,
                ConstraintKind::kConnect);
    }
    return;  // same net: never a spacing constraint (§6.4.1)
  }

  if (a.geometry.box.intersects(b.geometry.box)) {
    // Overlapping interacting layers (e.g. poly over diffusion): preserve
    // the original ordering of every edge pair so the topology survives.
    const Coord ax[2] = {a.geometry.box.lo.x, a.geometry.box.hi.x};
    const int av[2] = {a.left_var, a.right_var};
    const Coord bx[2] = {b.geometry.box.lo.x, b.geometry.box.hi.x};
    const int bv[2] = {b.left_var, b.right_var};
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 2; ++j) {
        if (ax[i] <= bx[j]) {
          constrain(av[i], a.pitch, a.pitch_coeff, bv[j], b.pitch, b.pitch_coeff, 0,
                    ConstraintKind::kOrder);
        } else {
          constrain(bv[j], b.pitch, b.pitch_coeff, av[i], a.pitch, a.pitch_coeff, 0,
                    ConstraintKind::kOrder);
        }
      }
    }
    return;
  }

  if (y_gap(a.geometry.box, b.geometry.box) >= s) return;  // far apart in y
  // Disjoint interacting boxes: minimum spacing, in original x order.
  if (a.geometry.box.lo.x <= b.geometry.box.lo.x) {
    constrain(a.right_var, a.pitch, a.pitch_coeff, b.left_var, b.pitch, b.pitch_coeff, s,
              ConstraintKind::kSpacing);
  } else {
    constrain(b.right_var, b.pitch, b.pitch_coeff, a.left_var, a.pitch, a.pitch_coeff, s,
              ConstraintKind::kSpacing);
  }
}

}  // namespace detail

void add_width_and_anchor(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                          const CompactionRules& rules) {
  for (const CompactionBox& cb : boxes) {
    const Coord original = cb.geometry.box.width();
    const Coord minimum =
        cb.stretchable ? std::max<Coord>(rules.min_width(cb.geometry.layer), 1) : original;
    system.add_constraint(cb.left_var, cb.right_var, minimum, ConstraintKind::kWidth);
    if (!cb.stretchable) {
      // Rigid boxes must not grow either.
      system.add_constraint(cb.right_var, cb.left_var, -original, ConstraintKind::kWidth);
    }
    // Left wall: every edge at x >= 0 (leaf compaction shifts cells so this
    // holds for the initial layout).
    system.add_constraint(-1, cb.left_var, 0, ConstraintKind::kAnchor);
  }
}

void add_box_variables(ConstraintSystem& system, std::vector<CompactionBox>& boxes) {
  for (CompactionBox& cb : boxes) {
    if (cb.left_var < 0) cb.left_var = system.add_variable(cb.geometry.box.lo.x);
    if (cb.right_var < 0) cb.right_var = system.add_variable(cb.geometry.box.hi.x);
  }
}

std::vector<Coord> band_cuts(const std::vector<CompactionBox>& boxes, int bands) {
  // Sentinels away from the extremes so window arithmetic cannot overflow
  // the clip comparisons.
  constexpr Coord kLo = std::numeric_limits<Coord>::lowest() / 2;
  constexpr Coord kHi = std::numeric_limits<Coord>::max() / 2;
  std::vector<Coord> cuts{kLo};
  if (bands > 1 && !boxes.empty()) {
    std::vector<Coord> ys;
    ys.reserve(boxes.size());
    for (const CompactionBox& cb : boxes) ys.push_back(cb.geometry.box.lo.y);
    std::sort(ys.begin(), ys.end());
    for (int k = 1; k < bands; ++k) {
      const Coord cut =
          ys[ys.size() * static_cast<std::size_t>(k) / static_cast<std::size_t>(bands)];
      if (cut > cuts.back()) cuts.push_back(cut);
    }
  }
  cuts.push_back(kHi);
  return cuts;
}

int resolve_sweep_threads(int threads) {
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(threads, 1);
}

namespace {

// Runs profile layer `layer`'s share of the Figure 6.7 sweep restricted to
// the band [y0, y1): walk the boxes in sweep order, query the profile
// through each window clipped to the band, and insert the boxes of this
// layer clipped to it. Each box lives in exactly one layer's profile, so
// the shards are independent.
void sweep_layer_band(int layer, Coord y0, Coord y1, const std::vector<CompactionBox>& boxes,
                      const SweepOrder& order, const CompactionRules& rules, SweepShard& out) {
  out.query_boxes.clear();
  out.run_offsets.assign(1, 0);
  out.partners.clear();
  const Layer la = static_cast<Layer>(layer);
  OrderedProfile profile;
  for (const std::size_t ib : order) {
    const CompactionBox& b = boxes[ib];
    Coord q0 = 0;
    Coord q1 = 0;
    if (layer_window(b, layer, rules, q0, q1)) {
      const Coord c0 = std::max(q0, y0);
      const Coord c1 = std::min(q1, y1);
      if (c0 < c1) {
        const std::size_t before = out.partners.size();
        profile.query(c0, c1, out.partners);
        if (out.partners.size() > before) {
          out.query_boxes.push_back(ib);
          out.run_offsets.push_back(out.partners.size());
        }
      }
    }
    if (b.geometry.layer == la) {
      const Coord m0 = std::max(b.geometry.box.lo.y, y0);
      const Coord m1 = std::min(b.geometry.box.hi.y, y1);
      if (m0 < m1) profile.insert(m0, m1, ib, boxes);
    }
  }
}

}  // namespace

void sweep_shards(const std::vector<CompactionBox>& boxes, const SweepOrder& order,
                  const CompactionRules& rules, const std::vector<Coord>& cuts,
                  const std::vector<std::size_t>& shard_indices, std::vector<SweepShard>& shards,
                  int threads) {
  const std::size_t nb = cuts.size() - 1;
  const auto run_one = [&](std::size_t s) {
    const std::size_t li = s / nb;
    const std::size_t b = s % nb;
    sweep_layer_band(static_cast<int>(li), cuts[b], cuts[b + 1], boxes, order, rules, shards[s]);
  };
  const int tasks = std::min<int>(threads, static_cast<int>(shard_indices.size()));
  if (tasks > 1) {
    std::vector<std::future<void>> pending;
    pending.reserve(static_cast<std::size_t>(tasks));
    for (int t = 0; t < tasks; ++t) {
      pending.push_back(std::async(std::launch::async, [&, t] {
        for (std::size_t k = static_cast<std::size_t>(t); k < shard_indices.size();
             k += static_cast<std::size_t>(tasks)) {
          run_one(shard_indices[k]);
        }
      }));
    }
    for (std::future<void>& f : pending) f.get();
  } else {
    for (const std::size_t s : shard_indices) run_one(s);
  }
}

SweepOrder sweep_order(const std::vector<CompactionBox>& boxes) {
  // A stable pass by right edge, then one by left edge: the order is by
  // (left, right), ties by index.
  SweepOrder order(boxes.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<Coord> key(boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i) key[i] = boxes[i].geometry.box.hi.x;
  stable_radix_sort(order, key);
  for (std::size_t i = 0; i < boxes.size(); ++i) key[i] = boxes[i].geometry.box.lo.x;
  stable_radix_sort(order, key);
  return order;
}

bool layer_window(const CompactionBox& box, int layer, const CompactionRules& rules, Coord& y0,
                  Coord& y1) {
  const Layer la = static_cast<Layer>(layer);
  const Layer lb = box.geometry.layer;
  const bool same = (la == lb);
  if (!same && !rules.interacts(la, lb)) return false;
  // Shadow margin: boxes within spacing distance in y still constrain.
  const Coord margin =
      same ? std::max<Coord>(rules.spacing(la, lb), 1) : rules.spacing(la, lb);
  y0 = box.geometry.box.lo.y - margin;
  y1 = box.geometry.box.hi.y + margin;
  return true;
}

namespace {

// Each box's electrical net label, its union-find root. Same-layer boxes
// that touch form one net: pairs inside a net get kConnect constraints,
// never spacing ones (§6.4.1), the net knowledge that plain box merging
// would provide but that device/bus tagging forbids. The partition is the
// touching relation's connected components, which the test oracle's
// all-pairs scan (tests/oracle) rebuilds independently.
//
// The sweep's partner lists already hold it (`offsets`/`partners`: the
// merged partner CSR keyed by box index), so the finder unites each box
// with its touching same-layer partners. That is exact. Take touching
// same-layer boxes a before b in sweep order, a of positive height. Some
// y* in b's window lies in a's half-open extent: an overlap point, or
// a.hi.y - 1 / a.lo.y when they share only an edge, because a box's
// window onto its own layer has a margin of at least 1 (layer_window).
// The box v b's query sees at y* reaches at least as far right as a and
// starts no later than b, so v touches both. v is b's partner and (v, a)
// is an earlier pair, so by induction on b's position a and b are joined.
// A zero-height box never enters a profile, so no later box sees it; it
// is united with the same-layer boxes that start inside its x extent and
// touch it, by a forward scan in sweep order. The work is one union test
// per partner (plus the scans), however many boxes compaction stacks on
// one rectangle.
std::vector<std::size_t> net_labels(const std::vector<CompactionBox>& boxes,
                                    const SweepOrder& order,
                                    const std::vector<std::size_t>& offsets,
                                    const std::vector<std::size_t>& partners) {
  const std::size_t n = boxes.size();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::size_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  const auto unite_if_touching = [&](std::size_t a, std::size_t b) {
    const LayerBox& ga = boxes[a].geometry;
    const LayerBox& gb = boxes[b].geometry;
    if (ga.layer == gb.layer && ga.box.abuts_or_intersects(gb.box)) parent[find(a)] = find(b);
  };
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t k = offsets[b]; k < offsets[b + 1]; ++k) unite_if_touching(partners[k], b);
  }
  for (std::size_t p = 0; p < n; ++p) {
    const Box& a = boxes[order[p]].geometry.box;
    if (a.height() != 0) continue;
    for (std::size_t q = p + 1; q < n && boxes[order[q]].geometry.box.lo.x <= a.hi.x; ++q) {
      unite_if_touching(order[p], order[q]);
    }
  }
  std::vector<std::size_t> net(n);
  for (std::size_t v = 0; v < n; ++v) net[v] = find(v);
  return net;
}

}  // namespace

void emit_pair_constraints(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                           const SweepOrder& order, const CompactionRules& rules,
                           const std::vector<const SweepShard*>& shards) {
  // Scatter the shard runs into one partner CSR keyed by box index. The
  // scatter order across shards is irrelevant: each box's run is sorted in
  // place and read without repeats (a partner recurs when the query met
  // it in several segments or bands), which is what pins the emitted
  // stream.
  const std::size_t n = boxes.size();
  std::vector<std::size_t> counts(n + 1, 0);
  for (const SweepShard* shard : shards) {
    for (std::size_t r = 0; r < shard->query_boxes.size(); ++r) {
      counts[shard->query_boxes[r] + 1] += shard->run_offsets[r + 1] - shard->run_offsets[r];
    }
  }
  for (std::size_t v = 0; v < n; ++v) counts[v + 1] += counts[v];
  std::vector<std::size_t> merged(counts[n]);
  std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
  for (const SweepShard* shard : shards) {
    for (std::size_t r = 0; r < shard->query_boxes.size(); ++r) {
      const std::size_t box = shard->query_boxes[r];
      for (std::size_t k = shard->run_offsets[r]; k < shard->run_offsets[r + 1]; ++k) {
        merged[cursor[box]++] = shard->partners[k];
      }
    }
  }
  const std::vector<std::size_t> net = net_labels(boxes, order, counts, merged);

  for (const std::size_t ib : order) {
    const auto run = merged.begin() + static_cast<std::ptrdiff_t>(counts[ib]);
    const auto end = merged.begin() + static_cast<std::ptrdiff_t>(counts[ib + 1]);
    std::sort(run, end);
    for (auto it = run; it != end; ++it) {
      if ((it != run && *it == it[-1]) || *it == ib) continue;
      detail::emit_pair_constraint(system, boxes, *it, ib, rules, net);
    }
  }
}

void generate_constraints(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                          const CompactionRules& rules, int threads) {
  // Band count follows the thread count: layers * threads shards strided
  // over `threads` tasks keeps every worker busy past the per-layer limit.
  const int bands = boxes.size() >= kBandedGenerationMinBoxes ? resolve_sweep_threads(threads) : 1;
  const SweepOrder order = sweep_order(boxes);
  const std::vector<Coord> cuts = band_cuts(boxes, bands);
  std::vector<SweepShard> shards(static_cast<std::size_t>(kNumLayers) * (cuts.size() - 1));
  std::vector<std::size_t> all(shards.size());
  std::iota(all.begin(), all.end(), 0);
  sweep_shards(boxes, order, rules, cuts, all, shards, bands);
  std::vector<const SweepShard*> views;
  views.reserve(shards.size());
  for (const SweepShard& s : shards) views.push_back(&s);
  add_width_and_anchor(system, boxes, rules);
  emit_pair_constraints(system, boxes, order, rules, views);
}

}  // namespace rsg::compact
