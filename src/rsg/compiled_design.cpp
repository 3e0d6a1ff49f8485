#include "rsg/compiled_design.hpp"

namespace rsg {

std::shared_ptr<const CompiledDesign> CompiledDesign::compile(const std::string& sample_text,
                                                              const std::string& design_text,
                                                              const CompileOptions& options) {
  // make_shared needs a public ctor; the design is immutable once returned,
  // so building it in place here is the only mutation it ever sees.
  auto design = std::shared_ptr<CompiledDesign>(new CompiledDesign());
  if (!options.snapshot_path.empty()) {
    const Snapshot snapshot = Snapshot::map_file(options.snapshot_path);
    design->snapshot_stats_ = load_snapshot(snapshot.view(), design->cells_);
    design->has_snapshot_ = true;
  }
  design->sample_stats_ = load_sample_layout(sample_text, design->cells_, design->interfaces_);
  design->program_ = lang::parse_program(design_text);
  return design;
}

}  // namespace rsg
