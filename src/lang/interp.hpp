// The design-file interpreter (Ch. 4).
//
// Embeds the RSG graph primitives (mk_instance, connect, mk_cell, subcell,
// declare_interface, array) in a Lisp-subset evaluator with:
//   * two procedure classes — functions (return last value) and macros
//     (return their whole evaluation environment, §4.2); macro names must
//     begin with 'm' so calls are classifiable ahead of time;
//   * the §4.1 scoping rule — procedure frame, then global environment,
//     then cell table — with symbol re-resolution so parameter files can
//     rename design-file variables onto sample-layout cells (Figure 4.1);
//   * indexed variables, cond / do / prog control flow, and integer
//     arithmetic (+ - * // mod, comparisons, and/or/not).
//
// The program arrives compiled (ast.hpp): names are symbol ids, so a call
// indexes the handler table or the definition slots by its head's id, a
// formal or local reads its frame slot, and any other reference probes its
// (symbol, indices) key in the frame, then the global frame, then the cell
// table, whose positive hits are cached per symbol. What §4.1 makes
// dynamic stays dynamic: a symbol value is re-resolved on every use;
// a defun binds its name when the form runs, so a call before it fails
// and a later defun replaces it; assign updates a frame binding, else a
// global one, else creates one in the frame; do binds in the current
// frame. Names first met at run time (parameter names the program never
// mentions, symbol values) live in this interpreter's SymbolSpace overlay;
// the program's own table stays shared and immutable.
//
// The interpreter mutates three externally owned stores: the cell table, the
// interface table, and the connectivity-graph arena. That split mirrors
// Figure 1.1 — the procedural domain (this interpreter) never touches
// geometry; it only builds graphs and asks for their expansion.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "graph/connectivity_graph.hpp"
#include "iface/interface_table.hpp"
#include "lang/ast.hpp"
#include "lang/env.hpp"
#include "lang/value.hpp"
#include "layout/cell_table.hpp"
#include "support/cancel.hpp"

namespace rsg::lang {

class Interpreter {
 public:
  Interpreter(CellTable& cells, InterfaceTable& interfaces, ConnectivityGraph& graph,
              std::ostream* output = nullptr, std::istream* input = nullptr);

  // Evaluates each top-level form against the global frame; returns the last
  // value. Programs run on one interpreter share its definitions and
  // globals; a definition keeps the program it came from alive.
  Value run(const Program& program);

  // Binds `name` in the global frame. The name maps to its key by the
  // canonical rule of SymbolSpace, so "l.3" is what `l.(+ 1 2)` reads.
  void set_global(const std::string& name, Value value);

  CellTable& cells() { return cells_; }
  InterfaceTable& interfaces() { return interfaces_; }
  ConnectivityGraph& graph() { return graph_; }

  struct Stats {
    std::size_t frames_created = 0;
    std::size_t procedure_calls = 0;
    std::size_t variable_lookups = 0;  // one per §4.1 resolution hop
    std::size_t cells_made = 0;
    int max_call_depth = 0;
  };
  const Stats& stats() const { return stats_; }

  // Deadline and cancellation: every kPollInterval ticks — one per do
  // iteration, procedure call and mk_instance — the token is checked, and
  // a fired token unwinds run() with its StatusError. nullptr = never.
  void set_cancel_token(const CancelToken* cancel) { cancel_ = cancel; }
  static constexpr int kPollInterval = 1024;

  // Encoding tables (§4: "primitives for manipulating encoding tables such
  // as PLA truth tables have also been added"). When a table is attached,
  // design files read it through the tt_inputs / tt_outputs / tt_terms /
  // tt_in / tt_out builtins (term and column indices are 1-based, matching
  // the language's do-loop conventions).
  struct EncodingTable {
    int inputs = 0;
    int outputs = 0;
    std::vector<std::vector<int>> in;   // per term: 0, 1, or 2 (don't-care)
    std::vector<std::vector<int>> out;  // per term: 0 or 1
  };
  void set_encoding_table(const EncodingTable* table) { encoding_ = table; }

 private:
  // A procedure, bound to its name's symbol when its defun form runs.
  struct Definition {
    bool is_macro = false;
    std::shared_ptr<const FrameLayout> layout;
    const Expr* form = nullptr;                  // (defun NAME ...), inside `program`
    std::shared_ptr<const ProgramBody> program;  // keeps `form` alive
  };

  using Handler = Value (Interpreter::*)(const Expr&, const EnvPtr&);
  // The built-in operators, indexed by symbol id (kPreludeNames order).
  static const Handler kHandlers[kBuiltinCount];

  // The program's forms with ids in this interpreter's symbol space.
  std::shared_ptr<const ProgramBody> link(const Program& program);

  Value eval(const Expr& expr, const EnvPtr& frame) {
    switch (expr.kind) {
      case Expr::Kind::kNumber:
        return Value::integer(expr.number);
      case Expr::Kind::kString:
        return Value::string(expr.text);
      case Expr::Kind::kVar:
        return eval_var(expr, frame);
      case Expr::Kind::kList:
        break;
    }
    return eval_list(expr, frame);
  }
  Value eval_list(const Expr& expr, const EnvPtr& frame);
  Value eval_var(const Expr& expr, const EnvPtr& frame);
  Value call_definition(const Definition& def, const Expr& expr, const EnvPtr& frame);

  // §4.1 resolution, one hop per lookup: frame -> global -> cell table,
  // following symbol values (Figure 4.1's corecell -> basiccell -> cell).
  // The first hop of a reference reads a formal's or local's frame slot, or
  // probes its key (set in `key`) in the frame and then the global frame;
  // nullptr when neither binds it. finish_var takes the remaining hops.
  const Value* first_hop(const Expr& var, const EnvPtr& frame, Key& key);
  Value finish_var(const Value* found, const Key& key, const Expr& var, const EnvPtr& frame);
  const Value* lookup(const Key& key, const EnvPtr& frame) const;
  const Cell* find_cell(const Key& key);
  Value resolve_symbol(std::string name, const EnvPtr& frame, const Expr& site);

  // Evaluates a kVar's indices in `frame`: the key `l.(+ 1 2)` binds.
  Key binding_key(const Expr& var, const EnvPtr& frame);

  // Assignment discipline for assign/setq/mk_instance: update the local
  // binding if one exists, else an existing global, else create locally.
  void assign(const Expr& var, const Key& key, Value value, const EnvPtr& frame);
  // `do` binds its variable in the current frame, always.
  void bind_here(const Expr& var, Value value, const EnvPtr& frame);

  // Coercions used by graph builtins. `coerce_cell` accepts cell values
  // directly, or strings/symbols naming a cell in the table.
  const Cell* coerce_cell(const Value& value, const Expr& site);
  std::string coerce_name(const Value& value, const Expr& site);  // string or symbol

  void define_procedure(const Expr& expr, bool is_macro);

  void tick() {
    if (--poll_countdown_ == 0) poll();
  }
  void poll();

  // Special forms and control flow (interp.cpp).
  Value sf_defun(const Expr&, const EnvPtr&);
  Value sf_macro(const Expr&, const EnvPtr&);
  Value sf_cond(const Expr&, const EnvPtr&);
  Value sf_do(const Expr&, const EnvPtr&);
  Value sf_prog(const Expr&, const EnvPtr&);
  Value sf_assign(const Expr&, const EnvPtr&);
  Value sf_print(const Expr&, const EnvPtr&);
  Value sf_read(const Expr&, const EnvPtr&);

  // Arithmetic / logic (builtins.cpp).
  Value b_add(const Expr&, const EnvPtr&);
  Value b_sub(const Expr&, const EnvPtr&);
  Value b_mul(const Expr&, const EnvPtr&);
  Value b_div(const Expr&, const EnvPtr&);
  Value b_mod(const Expr&, const EnvPtr&);
  Value b_eq(const Expr&, const EnvPtr&);
  Value b_ne(const Expr&, const EnvPtr&);
  Value b_gt(const Expr&, const EnvPtr&);
  Value b_lt(const Expr&, const EnvPtr&);
  Value b_ge(const Expr&, const EnvPtr&);
  Value b_le(const Expr&, const EnvPtr&);
  Value b_and(const Expr&, const EnvPtr&);
  Value b_or(const Expr&, const EnvPtr&);
  Value b_not(const Expr&, const EnvPtr&);

  // Graph primitives (builtins.cpp).
  Value b_mk_instance(const Expr&, const EnvPtr&);
  Value b_connect(const Expr&, const EnvPtr&);
  Value b_mk_cell(const Expr&, const EnvPtr&);
  Value b_subcell(const Expr&, const EnvPtr&);
  Value b_declare_interface(const Expr&, const EnvPtr&);
  Value b_array(const Expr&, const EnvPtr&);

  // Encoding-table access (builtins.cpp).
  Value b_tt_inputs(const Expr&, const EnvPtr&);
  Value b_tt_outputs(const Expr&, const EnvPtr&);
  Value b_tt_terms(const Expr&, const EnvPtr&);
  Value b_tt_in(const Expr&, const EnvPtr&);
  Value b_tt_out(const Expr&, const EnvPtr&);
  const EncodingTable& require_encoding(const Expr& site) const;

  [[noreturn]] void fail(const Expr& site, const std::string& message) const;
  void check_arity(const Expr& expr, std::size_t args, const char* name) const {
    if (expr.elements.size() - 1 != args) arity_error(expr, args, name);
  }
  [[noreturn]] void arity_error(const Expr& expr, std::size_t args, const char* name) const;
  // `indexed`: the variable whose index `expr` is, named in the error.
  std::int64_t eval_int(const Expr& expr, const EnvPtr& frame, const Expr* indexed = nullptr);
  GraphNode* eval_node(const Expr& expr, const EnvPtr& frame);

  CellTable& cells_;
  InterfaceTable& interfaces_;
  ConnectivityGraph& graph_;
  // Both made when the first program runs (link); set_global calls made
  // before then wait in unlinked_globals_, in order.
  std::shared_ptr<SymbolSpace> symbols_;
  EnvPtr global_;
  std::vector<std::pair<std::string, Value>> unlinked_globals_;
  std::ostream* output_;
  std::istream* input_;
  const EncodingTable* encoding_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  int poll_countdown_ = kPollInterval;

  // Indexed by symbol id: each name's current definition, and each name's
  // cell-table hit (cells are never removed, so a hit cannot go stale).
  std::vector<std::shared_ptr<const Definition>> definitions_;
  std::vector<const Cell*> cell_hits_;
  const ProgramBody* running_ = nullptr;  // the program whose forms are evaluating

  int depth_ = 0;
  static constexpr int kMaxDepth = 2000;
  static constexpr int kMaxHops = 32;
  Stats stats_;
};

}  // namespace rsg::lang
