// The constraint generators the production scan line (compact/scanline.hpp)
// is checked and measured against. Test code: built only with the suites or
// the benches, never linked into the product libraries.
#pragma once

#include <vector>

#include "compact/flat_compactor.hpp"
#include "compact/scanline.hpp"

namespace rsg::compact::oracle {

// The pre-scaling reference: all-pairs net finding (O(n^2)) and a
// linear-scan visibility profile (O(n) per query and insert), with its own
// per-layer partner discovery and per-box merge. It shares layer_window,
// sweep_order, add_width_and_anchor and the pair emission (compact::detail)
// with the production generator, so a rule change lands in both, while the
// sweep, the ordered profile and the net finding stay checked. Must emit the byte-identical
// stream to generate_constraints.
void generate_constraints_reference(ConstraintSystem& system,
                                    const std::vector<CompactionBox>& boxes,
                                    const CompactionRules& rules);

// The naive generator: every same-layer / interacting pair with y overlap
// gets a spacing constraint, hidden or not — the §6.4.1 mistake that
// "can substantially overconstrain the system" (Figure 6.4/6.5).
void generate_constraints_naive(ConstraintSystem& system,
                                const std::vector<CompactionBox>& boxes,
                                const CompactionRules& rules);

// compact_flat's pass with the naive generator in place of the scan line
// (no rubber band): the Figure 6.5 baseline row.
FlatResult compact_flat_naive(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                              const std::vector<bool>& stretchable = {});

}  // namespace rsg::compact::oracle
