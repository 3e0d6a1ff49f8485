// Compaction design-rule table (§6.3: "the known parameters are the design
// rules of the process, the sizing constraints ... and the electrical
// network implicit in the initial layout").
//
// Wraps the layout DesignRules with the queries the constraint generator
// needs, plus per-layer stretchability (buses stretch, devices don't).
#pragma once

#include "layout/design_rules.hpp"

namespace rsg::compact {

struct CompactionRules {
  DesignRules base = DesignRules::mosis_lambda();

  Coord spacing(Layer a, Layer b) const { return base.spacing(a, b); }
  bool interacts(Layer a, Layer b) const { return spacing(a, b) > 0; }
  Coord min_width(Layer layer) const { return base.min_width[static_cast<int>(layer)]; }

  static CompactionRules mosis() { return CompactionRules{}; }
};

}  // namespace rsg::compact
