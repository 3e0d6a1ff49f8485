// The graph-based constraint system of §6.3.
//
// Variables are the abscissas of vertical box edges; leaf-cell compaction
// adds one pitch variable λ per interface. A constraint edge asserts
//
//     X[to] - X[from] + pitch_coeff * λ[pitch] >= weight
//
// which reduces to the classic constant-weight form when pitch_coeff is 0.
// Figure 6.3's folding — replacing the edge "4 -> 1' weighted z4" with
// "4 -> 1 weighted z4 - λa" — is exactly a pitch_coeff of +1 on a
// same-cell-variable edge.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/box.hpp"

namespace rsg::compact {

enum class ConstraintKind : std::uint8_t {
  kSpacing,   // design-rule separation
  kWidth,     // right edge vs left edge of one box
  kConnect,   // same-layer electrical continuity (stay touching)
  kOrder,     // topology preservation for overlapping interacting layers
  kAnchor,    // X >= constant (left wall)
};

struct Constraint {
  int from = -1;     // -1 = the implicit origin (X = 0)
  int to = 0;
  Coord weight = 0;
  int pitch = -1;       // index into pitch variables, -1 = none
  int pitch_coeff = 0;  // -1, 0, or +1
  ConstraintKind kind = ConstraintKind::kSpacing;
};

class ConstraintSystem {
 public:
  int add_variable(Coord initial);
  int add_pitch(Coord initial);

  // Appends `c` after checking that it names existing variables and
  // pitches (rsg::Error otherwise). Inline: constraint generation appends
  // millions per schedule.
  void add_constraint(Constraint c) {
    const int n = static_cast<int>(initial_.size());
    if (c.to < 0 || c.to >= n || c.from < -1 || c.from >= n || c.pitch < -1 ||
        c.pitch >= static_cast<int>(pitch_initial_.size()) ||
        (c.pitch == -1 && c.pitch_coeff != 0)) [[unlikely]] {
      reject(c);
    }
    constraints_.push_back(c);
  }
  // Convenience for the constant-weight case.
  void add_constraint(int from, int to, Coord weight, ConstraintKind kind) {
    add_constraint({from, to, weight, -1, 0, kind});
  }

  std::size_t variable_count() const { return initial_.size(); }
  std::size_t pitch_count() const { return pitch_initial_.size(); }
  std::size_t constraint_count() const { return constraints_.size(); }

  // Incremental rebuilds (compact/incremental.hpp): keep the variables and
  // the first `count` constraints (the width/anchor prefix, or none), so
  // re-emitting the pairs into the same system skips the per-variable
  // allocation and the prefix of a from-scratch build.
  void truncate_constraints(std::size_t count) { constraints_.resize(count); }
  // Refresh a variable's initial abscissa to the current geometry (the
  // §6.4.2 seeding order sorts by it).
  void set_initial(int v, Coord x) { initial_[static_cast<std::size_t>(v)] = x; }

  const std::vector<Constraint>& constraints() const { return constraints_; }
  Coord initial(int v) const { return initial_[static_cast<std::size_t>(v)]; }

  // Solution storage (filled by the solvers).
  std::vector<Coord> values;
  std::vector<Coord> pitch_values;

  // True when `values`/`pitch_values` satisfy every constraint.
  bool satisfied() const;

 private:
  // Throws the message of the first check `c` fails.
  [[noreturn]] void reject(const Constraint& c) const;

  std::vector<Coord> initial_;
  std::vector<Coord> pitch_initial_;
  std::vector<Constraint> constraints_;
};

}  // namespace rsg::compact
