// The all-pairs rigid-group matcher the hashed one (compact/rigid_groups.hpp)
// is checked against. Test code: built only with the suites or the benches,
// never linked into the product libraries.
#pragma once

#include <vector>

#include "compact/constraint_graph.hpp"

namespace rsg::compact::oracle {

// Every variable's group: X_v = X_leader[v] + offset[v].
struct RigidPartition {
  std::vector<std::size_t> leader;
  std::vector<Coord> offset;
};

// Matches every pitch-free edge (u -> v, w) against (v -> u, -w) by scanning
// the whole constraint list (O(m^2)), and unites the matches in constraint
// order under the same rule as RigidGroups: the group of v joins u's.
RigidPartition quadratic_rigid_groups(const ConstraintSystem& system);

}  // namespace rsg::compact::oracle
