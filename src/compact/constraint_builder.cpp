#include "compact/constraint_builder.hpp"

namespace rsg::compact {

ConstraintSystemBuilder::ConstraintSystemBuilder(const CompactionRules& rules,
                                                BuilderOptions options)
    : rules_(rules), options_(options) {}

void ConstraintSystemBuilder::emit_batch(std::vector<CompactionBox>& boxes) {
  add_box_variables(system_, boxes);
  if (options_.generator == ConstraintGenerator::kNaive) {
    generate_constraints_naive(system_, boxes, rules_);
  } else if (options_.threads != 1 && boxes.size() >= options_.parallel_threshold) {
    generate_constraints_parallel(system_, boxes, rules_, options_.threads);
  } else {
    generate_constraints(system_, boxes, rules_);
  }
}

LpProblem ConstraintSystemBuilder::to_lp() const {
  const int num_edges = static_cast<int>(system_.variable_count());
  LpProblem lp;
  lp.num_vars = num_edges + static_cast<int>(system_.pitch_count());
  lp.objective.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
  for (const Constraint& c : system_.constraints()) {
    if (c.from < 0 && c.weight <= 0) continue;  // X >= 0 is implicit in the LP
    LpConstraint row;
    if (c.from >= 0) row.terms.emplace_back(c.from, 1.0);
    row.terms.emplace_back(c.to, -1.0);
    if (c.pitch >= 0) row.terms.emplace_back(num_edges + c.pitch, -c.pitch_coeff);
    row.rhs = -static_cast<double>(c.weight);
    lp.constraints.push_back(std::move(row));
  }
  return lp;
}

}  // namespace rsg::compact
