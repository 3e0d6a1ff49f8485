// Run-many half of the compile-once/run-many split.
//
// A GenerationSession owns ALL per-run mutable state of the pipeline: an
// overlay cell table and interface table over the shared CompiledDesign
// base, a connectivity graph whose nodes live in the session's own arena,
// and the interpreter environment created per generate() call. Sessions
// never write the base, so any number of them can run concurrently over
// one CompiledDesign — that is the whole point (rsg_serve's worker pool
// holds one session per in-flight request).
//
// A session is single-threaded: one generate() at a time per session.
// Results outlive the session — GeneratorResult::keepalive retains the
// session state (and through it the compiled design).
//
// This is the only way the pipeline runs: one-shot callers (rsg_cli,
// src/pla, the examples) compile and open one session per run; rsg_serve
// and `rsg_cli --params-sweep` compile once and open a session per request.
#pragma once

#include <memory>
#include <string>

#include "rsg/compiled_design.hpp"
#include "rsg/pipeline.hpp"
#include "support/arena.hpp"

namespace rsg {

class GenerationSession {
 public:
  explicit GenerationSession(std::shared_ptr<const CompiledDesign> design);

  // Runs the compiled program under the given parameter file. `top_cell`
  // overrides the default top choice (the `.top_cell` directive, else the
  // last cell created). Calling generate() again continues in the same
  // session state: the cells of the first run stay, so a design that names
  // its cells with mk_cell fails the second run on the duplicate name. Open
  // a fresh session per run instead.
  GeneratorResult generate(const std::string& param_text, const std::string& top_cell = {});

  // Attaches a PLA-style encoding table, exposed to the design file through
  // the tt_* builtins (§4). The table must outlive generate().
  void set_encoding_table(const lang::Interpreter::EncodingTable* table) { encoding_ = table; }

  // Requests post-generation compaction of the top cell. The parameter-file
  // directive `.compact:xy` enables the same with default options.
  void set_compaction(const CompactionRequest& request) { compaction_ = request; }

  // Attaches a deadline/cancellation token polled at every pipeline phase
  // boundary and compaction-round boundary (see pipeline.hpp). The token is
  // copied; generate() unwinds with StatusError when it fires.
  void set_cancel_token(const CancelToken& token) { cancel_ = token; }

  const CompiledDesign& design() const { return *state_->design; }
  // The session's overlay tables and graph. Mutations land here, reads fall
  // through to the compiled base.
  CellTable& cells() { return state_->cells; }
  InterfaceTable& interfaces() { return state_->interfaces; }
  ConnectivityGraph& graph() { return state_->graph; }
  const Arena& arena() const { return state_->arena; }

 private:
  // Shared (not unique) so GeneratorResult::keepalive can retain it; member
  // order is destruction-critical: the graph's nodes live in the arena, and
  // the overlays point into the design.
  struct State {
    std::shared_ptr<const CompiledDesign> design;
    Arena arena;
    CellTable cells;
    InterfaceTable interfaces;
    ConnectivityGraph graph;

    explicit State(std::shared_ptr<const CompiledDesign> d)
        : design(std::move(d)),
          cells(&design->cells()),
          interfaces(&design->interfaces()),
          graph(&arena) {}
  };

  std::shared_ptr<State> state_;
  const lang::Interpreter::EncodingTable* encoding_ = nullptr;
  CompactionRequest compaction_;
  CancelToken cancel_;  // default: never fires
};

}  // namespace rsg
