#include "oracle/quadratic_rigid_groups.hpp"

#include <numeric>

namespace rsg::compact::oracle {

RigidPartition quadratic_rigid_groups(const ConstraintSystem& system) {
  const std::size_t n = system.variable_count();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<Coord> above(n, 0);  // X_v = X_parent[v] + above[v]
  const auto root = [&](std::size_t v, Coord& offset) {
    offset = 0;
    while (parent[v] != v) {
      offset += above[v];
      v = parent[v];
    }
    return v;
  };
  for (const Constraint& a : system.constraints()) {
    if (a.from < 0 || a.pitch >= 0) continue;
    for (const Constraint& b : system.constraints()) {
      if (b.from != a.to || b.to != a.from || b.pitch >= 0 || a.weight + b.weight != 0) continue;
      // X_to = X_from + weight.
      Coord from_offset = 0;
      Coord to_offset = 0;
      const std::size_t rf = root(static_cast<std::size_t>(a.from), from_offset);
      const std::size_t rt = root(static_cast<std::size_t>(a.to), to_offset);
      if (rf == rt) continue;
      parent[rt] = rf;
      above[rt] = from_offset + a.weight - to_offset;
    }
  }
  RigidPartition out{std::vector<std::size_t>(n), std::vector<Coord>(n, 0)};
  for (std::size_t v = 0; v < n; ++v) out.leader[v] = root(v, out.offset[v]);
  return out;
}

}  // namespace rsg::compact::oracle
