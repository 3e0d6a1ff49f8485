#include "rsg/session.hpp"

#include <chrono>

#include "support/error.hpp"

namespace rsg {

GenerationSession::GenerationSession(std::shared_ptr<const CompiledDesign> design) {
  if (design == nullptr) throw Error("GenerationSession: null compiled design");
  state_ = std::make_shared<State>(std::move(design));
}

GeneratorResult GenerationSession::generate(const std::string& param_text,
                                            const std::string& top_cell) {
  const auto t0 = std::chrono::steady_clock::now();
  const ParameterFile params = ParameterFile::parse(param_text);
  const auto parse_time = std::chrono::steady_clock::now() - t0;
  GeneratorResult result =
      detail::execute_generation(state_->cells, state_->interfaces, state_->graph,
                                 state_->design->program(), params, top_cell, encoding_,
                                 compaction_, &cancel_);
  result.times.execute_design += parse_time;
  // Sample loading happened once at compile time; surface its stats with
  // the run's.
  result.sample_stats = state_->design->sample_stats();
  result.keepalive = state_;
  return result;
}

}  // namespace rsg
