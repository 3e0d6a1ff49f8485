#include "compact/constraint_graph.hpp"

#include "support/error.hpp"

namespace rsg::compact {

int ConstraintSystem::add_variable(Coord initial) {
  initial_.push_back(initial);
  values.push_back(initial);
  return static_cast<int>(initial_.size()) - 1;
}

int ConstraintSystem::add_pitch(Coord initial) {
  pitch_initial_.push_back(initial);
  pitch_values.push_back(initial);
  return static_cast<int>(pitch_initial_.size()) - 1;
}

void ConstraintSystem::reject(const Constraint& c) const {
  const int n = static_cast<int>(initial_.size());
  if (c.to < 0 || c.to >= n || c.from < -1 || c.from >= n) {
    throw Error("constraint references an unknown variable");
  }
  if (c.pitch < -1 || c.pitch >= static_cast<int>(pitch_initial_.size())) {
    throw Error("constraint references an unknown pitch variable");
  }
  throw Error("constraint has a pitch coefficient but no pitch variable");
}

bool ConstraintSystem::satisfied() const {
  for (const Constraint& c : constraints_) {
    const Coord from = c.from < 0 ? 0 : values[static_cast<std::size_t>(c.from)];
    const Coord to = values[static_cast<std::size_t>(c.to)];
    const Coord pitch =
        c.pitch < 0 ? 0 : c.pitch_coeff * pitch_values[static_cast<std::size_t>(c.pitch)];
    if (to - from + pitch < c.weight) return false;
  }
  return true;
}

}  // namespace rsg::compact
