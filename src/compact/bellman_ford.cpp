#include "compact/bellman_ford.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "support/error.hpp"

namespace rsg::compact {

namespace {

std::vector<std::size_t> edge_order(const ConstraintSystem& system, EdgeOrder order) {
  std::vector<std::size_t> indices(system.constraint_count());
  std::iota(indices.begin(), indices.end(), 0);
  if (order == EdgeOrder::kInsertion) return indices;
  std::stable_sort(indices.begin(), indices.end(), [&](std::size_t i, std::size_t j) {
    const Constraint& a = system.constraints()[i];
    const Constraint& b = system.constraints()[j];
    const Coord xa = a.from < 0 ? 0 : system.initial(a.from);
    const Coord xb = b.from < 0 ? 0 : system.initial(b.from);
    return xa < xb;
  });
  if (order == EdgeOrder::kReversed) std::reverse(indices.begin(), indices.end());
  return indices;
}

Coord pitch_term(const ConstraintSystem& system, const Constraint& c) {
  if (c.pitch < 0) return 0;
  return c.pitch_coeff * system.pitch_values[static_cast<std::size_t>(c.pitch)];
}

// One direction of the longest-path problem, in gain coordinates g. The
// leftmost solver raises g = X along from -> to from the floor X >= 0; the
// rightmost dual lowers U along to -> from under the width ceiling, which
// is the same raise of g = -U over the reversed constraints from the floor
// -width. Either way every constraint reads g[head] >= g[tail] + weight -
// pitch term. The implicit origin (from = -1, value 0) is a tail of the
// leftmost direction only: the dual drops origin constraints (anchors
// bound from below only), which leaves them without a head.
struct Direction {
  bool reversed = false;
  Coord floor = 0;
  int tail(const Constraint& c) const { return reversed ? c.to : c.from; }
  int head(const Constraint& c) const { return reversed ? c.from : c.to; }
};

// The solver's node and constraint indices, narrowed to halve the hot
// arrays: variables are ints already, and build_adjacency checks the
// constraint count.
using Index = std::uint32_t;

// A constraint as the solver walks it from its tail: the head it bounds
// and by how much (weight minus pitch term).
struct Arc {
  Coord gain;
  Index head;
  Index constraint;
};

// CSR adjacency keyed by the tail, with the origin as key n (after the n
// variables). Constraints without a head are left out.
struct Adjacency {
  std::vector<std::size_t> offsets;  // size n + 2
  std::vector<Arc> arcs;             // grouped by tail
};

Adjacency build_adjacency(const ConstraintSystem& system, Direction dir) {
  Adjacency adj;
  const std::size_t n = system.variable_count();
  const std::vector<Constraint>& cs = system.constraints();
  if (cs.size() >= std::numeric_limits<Index>::max()) {
    throw Error("longest-path solve: too many constraints");
  }
  const auto key = [&](const Constraint& c) {
    const int t = dir.tail(c);
    return t < 0 ? n : static_cast<std::size_t>(t);
  };
  adj.offsets.assign(n + 2, 0);
  for (const Constraint& c : cs) {
    if (dir.head(c) >= 0) ++adj.offsets[key(c) + 1];
  }
  for (std::size_t v = 0; v <= n; ++v) adj.offsets[v + 1] += adj.offsets[v];
  adj.arcs.resize(adj.offsets[n + 1]);
  std::vector<std::size_t> cursor(adj.offsets.begin(), adj.offsets.end() - 1);
  for (std::size_t e = 0; e < cs.size(); ++e) {
    const Constraint& c = cs[e];
    if (dir.head(c) < 0) continue;
    adj.arcs[cursor[key(c)]++] = {c.weight - pitch_term(system, c),
                                  static_cast<Index>(dir.head(c)), static_cast<Index>(e)};
  }
  return adj;
}

// The variables in order of initial abscissa (descending for the dual),
// ties by index: a stable LSD radix sort of each abscissa's offset from
// the smallest, one byte per pass, as many passes as the range needs.
std::vector<Index> seeding_order(const ConstraintSystem& system, bool descending) {
  const std::size_t n = system.variable_count();
  const auto abscissa = [&](std::size_t v) {
    const Coord x = system.initial(static_cast<int>(v));
    return descending ? -x : x;
  };
  Coord lo = std::numeric_limits<Coord>::max();
  for (std::size_t v = 0; v < n; ++v) lo = std::min(lo, abscissa(v));
  std::vector<std::uint64_t> key(n);
  std::uint64_t range = 0;
  for (std::size_t v = 0; v < n; ++v) {
    key[v] = static_cast<std::uint64_t>(abscissa(v)) - static_cast<std::uint64_t>(lo);
    range |= key[v];
  }
  std::vector<Index> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<Index> sorted(n);
  for (unsigned shift = 0; shift < 64 && (range >> shift) != 0; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const Index v : order) ++start[((key[v] >> shift) & 0xff) + 1];
    for (std::size_t d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (const Index v : order) sorted[start[(key[v] >> shift) & 0xff]++] = v;
    order.swap(sorted);
  }
  return order;
}

// The worklist solve of one direction, written into `g` (the caller's
// value vector, in gain coordinates).
class LongestPaths {
 public:
  LongestPaths(const ConstraintSystem& system, Direction dir, std::vector<Coord>& g)
      : system_(system),
        dir_(dir),
        n_(system.variable_count()),
        g_(g),
        adj_(build_adjacency(system, dir)) {}

  SolveStats solve(const std::vector<Coord>* warm_seed) {
    SolveStats stats;
    if (warm_seed == nullptr || warm_seed->size() != n_ || n_ == 0 || !warm(*warm_seed, stats)) {
      cold(stats);
    }
    stats.converged = true;
    return stats;
  }

 private:
  // A node of the cold solve's longest-path tree: the variables, then the
  // origin as node n.
  struct Node {
    Index parent = 0;
    Index via = 0;  // the constraint that last raised the variable
    Index depth = 0;
    Index next = 0;  // the preorder thread
    Index prev = 0;
    bool attached = true;
    bool queued = true;
  };

  // Warm phase: seed from the previous solution (clamped onto the floor),
  // raise to a fixpoint, then verify the fixpoint is the extreme solution.
  // One unsorted sweep finds the violated constraints; a FIFO worklist
  // drains the cascade. A good seed needs at most a sparse cascade; more
  // relaxations than variables means the seed was globally off, and
  // finishing the raise just to fail verification would cost more than the
  // cold solve saves. The same budget bounds the phase on infeasible
  // systems, so the cold solve stays the single verdict. Returns false when
  // the phase abandoned or verification failed: the seed overshot the
  // extreme solution somewhere, and the cold solve reruns. Exactness first.
  bool warm(const std::vector<Coord>& seed, SolveStats& stats) {
    stats.warm_attempted = true;
    g_.resize(n_);
    for (std::size_t v = 0; v < n_; ++v) {
      g_[v] = std::max(dir_.floor, dir_.reversed ? -seed[v] : seed[v]);
    }
    const std::vector<Coord> seeded = g_;
    std::deque<std::size_t> queue;
    std::vector<char> queued(n_, 0);
    bool abandoned = false;
    const auto relax = [&](Coord from, std::size_t v, Coord gain) {
      if (g_[v] >= from + gain) return;
      g_[v] = from + gain;
      if (++stats.relaxations > n_) {
        abandoned = true;
      } else if (!queued[v]) {
        queued[v] = 1;
        queue.push_back(v);
      }
    };
    ++stats.passes;
    for (const Constraint& c : system_.constraints()) {
      if (abandoned) break;
      const int t = dir_.tail(c);
      const int h = dir_.head(c);
      if (h >= 0) {
        relax(t < 0 ? 0 : g_[static_cast<std::size_t>(t)], static_cast<std::size_t>(h),
              c.weight - pitch_term(system_, c));
      }
    }
    while (!queue.empty() && !abandoned) {
      const std::size_t u = queue.front();
      queue.pop_front();
      queued[u] = 0;
      ++stats.pops;
      for (std::size_t k = adj_.offsets[u]; k < adj_.offsets[u + 1] && !abandoned; ++k) {
        relax(g_[u], adj_.arcs[k].head, adj_.arcs[k].gain);
      }
    }
    if (abandoned || !supported()) return false;
    stats.warm_accepted = true;
    for (std::size_t v = 0; v < n_; ++v) {
      if (g_[v] > dir_.floor && g_[v] == seeded[v]) ++stats.warm_pops_saved;
    }
    return true;
  }

  // Tight-chain verification of a warm fixpoint F. Any vector satisfying
  // every constraint bounds the extreme solution L from above (in gain), so
  // F >= L. A variable is "supported" when its value is witnessed by a
  // tight chain from the anchors: the floor, a tight origin constraint, or
  // a tight constraint from a supported variable. A supported value is <=
  // the longest path from the anchors, i.e. <= L — so if every variable is
  // supported, F == L exactly.
  bool supported() const {
    std::vector<char> marked(n_, 0);
    std::vector<std::size_t> stack{n_};  // the origin
    std::size_t found = 0;
    const auto mark = [&](std::size_t v) {
      if (!marked[v]) {
        marked[v] = 1;
        ++found;
        stack.push_back(v);
      }
    };
    for (std::size_t v = 0; v < n_; ++v) {
      if (g_[v] <= dir_.floor) mark(v);
    }
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      const Coord gu = u == n_ ? 0 : g_[u];
      for (std::size_t k = adj_.offsets[u]; k < adj_.offsets[u + 1]; ++k) {
        const Arc& arc = adj_.arcs[k];
        if (g_[arc.head] == gu + arc.gain) mark(arc.head);
      }
    }
    return found == n_;
  }

  // The cold solve. Every variable starts on the floor, hanging off the
  // origin (node n) in a longest-path tree whose edges are tight, kept as a
  // preorder thread with depths. Raising v from u detaches v's subtree:
  // its values derive from v's old one and will be raised again through v,
  // so queued descendants are skipped when popped and their out-edges are
  // not relaxed meanwhile. If u lies inside that subtree, the tree path
  // v ~> u plus the raising constraint is a positive cycle: the verdict.
  // Otherwise v re-hangs under u and every tree path stays simple, so each
  // value is a simple path's length and the solve terminates. The FIFO's
  // first round, after the origin's out-edges, is the seeding sweep over
  // the variables in order of initial abscissa (§6.4.2; the dual sweeps
  // descending): when the initial ordering survives, it alone converges.
  void cold(SolveStats& stats) {
    const auto root = static_cast<Index>(n_);
    g_.assign(n_, dir_.floor);
    Coord* const g = g_.data();
    // The FIFO holds each variable at most once; it starts as the sweep.
    std::vector<Index> ring = seeding_order(system_, dir_.reversed);
    std::vector<Node> tree(n_ + 1);
    tree[root] = {root, 0, 0, root, root, true, false};
    for (const Index v : ring) {
      const Index last = tree[root].prev;
      tree[v] = {root, 0, 1, root, last, true, true};
      tree[last].next = v;
      tree[root].prev = v;
    }
    std::size_t front = 0;
    std::size_t size = n_;

    const auto relax = [&](Index u, Coord gu, const Arc& arc) {
      const Index v = arc.head;
      if (g[v] >= gu + arc.gain) return;
      Node& nv = tree[v];
      if (nv.attached) {
        // Cut v and its subtree out of the thread: the thread holds each
        // subtree as one contiguous run of deeper nodes after its root.
        Index x = v;
        do {
          if (x == u) throw_cycle(tree, u, v, arc.constraint, stats);
          tree[x].attached = false;
          x = tree[x].next;
        } while (tree[x].depth > nv.depth);
        tree[nv.prev].next = x;
        tree[x].prev = nv.prev;
      }
      g[v] = gu + arc.gain;
      ++stats.relaxations;
      Node& nu = tree[u];
      nv.parent = u;
      nv.via = arc.constraint;
      nv.depth = nu.depth + 1;
      nv.attached = true;
      nv.next = nu.next;
      nv.prev = u;
      tree[nu.next].prev = v;
      nu.next = v;
      if (!nv.queued) {
        nv.queued = true;
        const std::size_t slot = front + size++;
        ring[slot < n_ ? slot : slot - n_] = v;
      }
    };

    ++stats.passes;
    for (std::size_t k = adj_.offsets[root]; k < adj_.offsets[root + 1]; ++k) {
      relax(root, 0, adj_.arcs[k]);
    }
    std::size_t sweep = n_;
    while (size > 0) {
      const Index u = ring[front];
      if (++front == n_) front = 0;
      --size;
      tree[u].queued = false;
      if (sweep > 0) {
        --sweep;
      } else {
        ++stats.pops;
      }
      if (!tree[u].attached) continue;
      // A raise of u during its own scan would close a cycle and throw, so
      // g[u] is fixed for the loop.
      for (std::size_t k = adj_.offsets[u]; k < adj_.offsets[u + 1]; ++k) {
        relax(u, g[u], adj_.arcs[k]);
      }
    }
  }

  // The certificate: the tree path v ~> u, then the closing constraint
  // u -> v, listed in the constraints' own from -> to direction.
  [[noreturn]] void throw_cycle(const std::vector<Node>& tree, Index u, Index v, Index closing,
                                const SolveStats& stats) const {
    std::vector<std::size_t> cycle;
    for (Index x = u; x != v; x = tree[x].parent) cycle.push_back(tree[x].via);
    std::reverse(cycle.begin(), cycle.end());
    cycle.push_back(closing);
    if (dir_.reversed) std::reverse(cycle.begin(), cycle.end());
    throw PositiveCycle(std::move(cycle), stats.relaxations);
  }

  const ConstraintSystem& system_;
  Direction dir_;
  std::size_t n_;
  std::vector<Coord>& g_;
  Adjacency adj_;
};

}  // namespace

PositiveCycle::PositiveCycle(std::vector<std::size_t> cycle, std::size_t relaxations)
    : Error("compaction constraints are infeasible (positive cycle of " +
            std::to_string(cycle.size()) + " constraints)"),
      cycle_(std::move(cycle)),
      relaxations_(relaxations) {}

SolveStats solve_leftmost(ConstraintSystem& system, EdgeOrder order) {
  SolveStats stats;
  const std::vector<std::size_t> edges = edge_order(system, order);

  // Least solution of X[to] >= X[from] + w - pitch with X >= 0: start at 0
  // and raise until fixpoint (longest path from the implicit origin).
  std::fill(system.values.begin(), system.values.end(), 0);

  const int max_passes = static_cast<int>(system.variable_count()) + 2;
  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    bool changed = false;
    for (const std::size_t e : edges) {
      const Constraint& c = system.constraints()[e];
      const Coord from = c.from < 0 ? 0 : system.values[static_cast<std::size_t>(c.from)];
      const Coord bound = from + c.weight - pitch_term(system, c);
      Coord& to = system.values[static_cast<std::size_t>(c.to)];
      if (to < bound) {
        to = bound;
        ++stats.relaxations;
        changed = true;
      }
    }
    if (!changed) {
      stats.converged = true;
      return stats;
    }
  }
  throw Error("compaction constraints are infeasible (positive cycle)");
}

SolveStats solve_rightmost(ConstraintSystem& system, Coord width,
                           std::vector<Coord>& upper_bounds) {
  SolveStats stats;
  // Greatest solution with X <= width: start at the ceiling and lower each
  // variable to satisfy X[to] - X[from] >= w as a bound on X[from]:
  // X[from] <= X[to] - w + pitch.
  upper_bounds.assign(system.variable_count(), width);
  const int max_passes = static_cast<int>(system.variable_count()) + 2;
  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    bool changed = false;
    for (const Constraint& c : system.constraints()) {
      if (c.from < 0) continue;  // anchors bound from below only
      const Coord bound =
          upper_bounds[static_cast<std::size_t>(c.to)] - c.weight + pitch_term(system, c);
      Coord& from = upper_bounds[static_cast<std::size_t>(c.from)];
      if (from > bound) {
        from = bound;
        ++stats.relaxations;
        changed = true;
      }
    }
    if (!changed) {
      stats.converged = true;
      return stats;
    }
  }
  throw Error("compaction constraints are infeasible (positive cycle)");
}

SolveStats solve_leftmost_worklist(ConstraintSystem& system,
                                   const std::vector<Coord>* warm_seed) {
  return LongestPaths(system, {false, 0}, system.values).solve(warm_seed);
}

SolveStats solve_rightmost_worklist(ConstraintSystem& system, Coord width,
                                    std::vector<Coord>& upper_bounds,
                                    const std::vector<Coord>* warm_seed) {
  const SolveStats stats = LongestPaths(system, {true, -width}, upper_bounds).solve(warm_seed);
  for (Coord& u : upper_bounds) u = -u;
  return stats;
}

}  // namespace rsg::compact
