#include "rsg/generator.hpp"

#include "io/cif_writer.hpp"
#include "lang/parser.hpp"
#include "support/error.hpp"

namespace rsg {

Generator::Generator() : state_(std::make_shared<State>()) {}

GeneratorResult Generator::run(const std::string& sample_text, const std::string& design_text,
                               const std::string& param_text, const std::string& top_cell) {
  using Clock = std::chrono::steady_clock;

  // Phase 1: read the sample layout and build the initial interface table.
  const auto t0 = Clock::now();
  const SampleLayoutStats sample_stats =
      load_sample_layout(sample_text, state_->cells, state_->interfaces);
  const auto t1 = Clock::now();

  // Phases 2–4 are the shared run core — identical to a GenerationSession.
  // Parsing the two input files counts toward executing them.
  const ParameterFile params = ParameterFile::parse(param_text);
  const lang::Program program = lang::parse_program(design_text);
  const auto t2 = Clock::now();
  GeneratorResult result =
      detail::execute_generation(state_->cells, state_->interfaces, state_->graph, program,
                                 params, top_cell, encoding_, compaction_);
  result.sample_stats = sample_stats;
  result.times.read_sample = t1 - t0;
  result.times.execute_design += t2 - t1;
  result.keepalive = state_;
  return result;
}

GeneratorResult Generator::run_files(const std::string& sample_path,
                                     const std::string& design_path,
                                     const std::string& param_path,
                                     const std::string& output_path) {
  const std::string param_text = read_text_file(param_path);
  GeneratorResult result = run(read_text_file(sample_path), read_text_file(design_path),
                               param_text);
  if (!output_path.empty()) write_cif_file(output_path, *result.top);
  const ParameterFile params = ParameterFile::parse(param_text);
  if (const std::string* snapshot = params.directive("snapshot_file")) {
    write_snapshot_file(*snapshot, state_->cells, result.top->name());
  }
  return result;
}

SnapshotReadResult Generator::import_snapshot(const std::string& path) {
  return read_snapshot_file(path, state_->cells);
}

SnapshotWriteStats Generator::export_snapshot(const std::string& path,
                                              const std::string& root) const {
  return write_snapshot_file(path, state_->cells, root);
}

}  // namespace rsg
