#include "lang/interp.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "lang/parser.hpp"
#include "support/error.hpp"

namespace rsg::lang {

Interpreter::Interpreter(CellTable& cells, InterfaceTable& interfaces, ConnectivityGraph& graph,
                         std::ostream* output, std::istream* input)
    : cells_(cells), interfaces_(interfaces), graph_(graph), output_(output), input_(input) {}

void Interpreter::fail(const Expr& site, const std::string& message) const {
  throw LangError(message, site.line, site.column);
}

void Interpreter::arity_error(const Expr& expr, std::size_t args, const char* name) const {
  fail(expr, std::string(name) + " expects " + std::to_string(args) + " argument(s), got " +
                 std::to_string(expr.elements.size() - 1));
}

void Interpreter::poll() {
  poll_countdown_ = kPollInterval;
  if (cancel_ != nullptr) cancel_->check("interpreter");
}

void Interpreter::set_global(const std::string& name, Value value) {
  if (global_ == nullptr) {
    unlinked_globals_.emplace_back(name, std::move(value));
  } else {
    global_->set(symbols_->intern_key(name), std::move(value));
  }
}

namespace {

void renumber(Expr& expr, const std::vector<SymbolId>& ids) {
  if (expr.kind == Expr::Kind::kVar) expr.sym = ids[expr.sym];
  for (Expr& index : expr.indices) renumber(index, ids);
  for (Expr& element : expr.elements) renumber(element, ids);
}

// Restores the running program when a form's evaluation ends or unwinds.
class RunningScope {
 public:
  RunningScope(const ProgramBody*& running, const ProgramBody* body)
      : running_(running), outer_(std::exchange(running, body)) {}
  ~RunningScope() { running_ = outer_; }
  RunningScope(const RunningScope&) = delete;
  RunningScope& operator=(const RunningScope&) = delete;

 private:
  const ProgramBody*& running_;
  const ProgramBody* outer_;
};

}  // namespace

std::shared_ptr<const ProgramBody> Interpreter::link(const Program& program) {
  const std::shared_ptr<const ProgramBody>& body = program.body();
  if (global_ == nullptr) {
    // The first program: its table becomes this interpreter's, so its ids
    // need no translation, and the globals bound so far get their keys.
    symbols_ = std::make_shared<SymbolSpace>(body->symbols);
    global_ = std::make_shared<Environment>(symbols_);
    global_->set(Key{kSymTrue}, Value::boolean(true));
    global_->set(Key{kSymFalse}, Value::boolean(false));
    global_->set(Key{kSymNil}, Value::nil());
    for (auto& [name, value] : unlinked_globals_) {
      global_->set(symbols_->intern_key(name), std::move(value));
    }
    unlinked_globals_.clear();
    return body;
  }
  if (body->symbols == symbols_->base()) return body;
  // A later program with its own table: a copy renumbered into this
  // interpreter's space, its new names going to the overlay.
  std::vector<SymbolId> ids(body->symbols->size());
  for (std::size_t id = 0; id < ids.size(); ++id) {
    ids[id] = symbols_->intern(body->symbols->name(static_cast<SymbolId>(id)));
  }
  auto copy = std::make_shared<ProgramBody>();
  copy->symbols = symbols_->base();
  copy->forms = body->forms;
  for (Expr& form : copy->forms) renumber(form, ids);
  return copy;
}

Value Interpreter::run(const Program& program) {
  const std::shared_ptr<const ProgramBody> body = link(program);
  const RunningScope scope(running_, body.get());
  Value last;
  for (const Expr& form : body->forms) last = eval(form, global_);
  return last;
}

const Value* Interpreter::first_hop(const Expr& var, const EnvPtr& frame, Key& key) {
  if (var.slot != kNoSlot) {
    ++stats_.variable_lookups;
    return &frame->slot(var.slot);
  }
  key = var.indices.empty() ? Key{var.sym} : binding_key(var, frame);
  ++stats_.variable_lookups;
  return lookup(key, frame);
}

Value Interpreter::finish_var(const Value* found, const Key& key, const Expr& var,
                              const EnvPtr& frame) {
  if (found == nullptr) {
    if (const Cell* cell = find_cell(key)) return Value::cell(cell);
    fail(var, "unbound variable '" + symbols_->spell(key) +
                  "' (not a parameter, local, or cell name)");
  }
  if (!found->is_symbol()) return *found;
  return resolve_symbol(found->as_symbol().name, frame, var);
}

Value Interpreter::eval_var(const Expr& expr, const EnvPtr& frame) {
  Key key;
  const Value* found = first_hop(expr, frame, key);
  return finish_var(found, key, expr, frame);
}

Key Interpreter::binding_key(const Expr& var, const EnvPtr& frame) {
  if (var.kind != Expr::Kind::kVar) fail(var, "expected a variable");
  Key key{var.sym};
  for (const Expr& index : var.indices) key.index[key.count++] = eval_int(index, frame, &var);
  return key;
}

const Value* Interpreter::lookup(const Key& key, const EnvPtr& frame) const {
  const Value* found = frame->find(key);
  if (found == nullptr && frame != global_) found = global_->find(key);
  return found;
}

const Cell* Interpreter::find_cell(const Key& key) {
  if (key.count != 0) return std::as_const(cells_).find(symbols_->spell(key));
  if (key.sym < cell_hits_.size() && cell_hits_[key.sym] != nullptr) return cell_hits_[key.sym];
  const Cell* cell = std::as_const(cells_).find(symbols_->name(key.sym));
  if (cell != nullptr) {
    if (key.sym >= cell_hits_.size()) cell_hits_.resize(symbols_->size());
    cell_hits_[key.sym] = cell;
  }
  return cell;
}

Value Interpreter::resolve_symbol(std::string name, const EnvPtr& frame, const Expr& site) {
  // The hops after a symbol value: the name arrives as a string and maps to
  // its key by the canonical rule. A bounded hop count catches accidental
  // cycles like a=b, b=a in the parameter file.
  for (int hop = 1; hop < kMaxHops; ++hop) {
    ++stats_.variable_lookups;
    const std::optional<Key> key = symbols_->find_key(name);
    const Value* found = key ? lookup(*key, frame) : nullptr;
    if (found != nullptr) {
      if (found->is_symbol()) {
        name = found->as_symbol().name;
        continue;
      }
      return *found;
    }
    const Cell* cell = key ? find_cell(*key) : std::as_const(cells_).find(name);
    if (cell != nullptr) return Value::cell(cell);
    fail(site, "unbound variable '" + name + "' (not a parameter, local, or cell name)");
  }
  fail(site, "symbol indirection cycle while resolving '" + name + "'");
}

void Interpreter::assign(const Expr& var, const Key& key, Value value, const EnvPtr& frame) {
  if (var.slot != kNoSlot) {
    frame->slot(var.slot) = std::move(value);
  } else if (frame == global_ || frame->contains(key) || !global_->contains(key)) {
    frame->set(key, std::move(value));
  } else {
    global_->set(key, std::move(value));
  }
}

void Interpreter::bind_here(const Expr& var, Value value, const EnvPtr& frame) {
  if (var.slot != kNoSlot) {
    frame->slot(var.slot) = std::move(value);
  } else {
    frame->set(Key{var.sym}, std::move(value));
  }
}

const Cell* Interpreter::coerce_cell(const Value& value, const Expr& site) {
  if (value.is_cell()) return value.as_cell();
  if (value.is_string() || value.is_symbol()) {
    const std::string& name = value.is_string() ? value.as_string() : value.as_symbol().name;
    const Cell* cell = std::as_const(cells_).find(name);
    if (cell != nullptr) return cell;
    fail(site, "no cell named '" + name + "' in the cell table");
  }
  fail(site, std::string("expected a cell, got ") + value.type_name());
}

std::string Interpreter::coerce_name(const Value& value, const Expr& site) {
  if (value.is_string()) return value.as_string();
  if (value.is_symbol()) return value.as_symbol().name;
  if (value.is_cell()) return value.as_cell()->name();
  fail(site, std::string("expected a name (string or symbol), got ") + value.type_name());
}

std::int64_t Interpreter::eval_int(const Expr& expr, const EnvPtr& frame, const Expr* indexed) {
  // Literals and variables bound to integers are read in place.
  Value v;
  if (expr.kind == Expr::Kind::kNumber) return expr.number;
  if (expr.kind == Expr::Kind::kVar) {
    Key key;
    const Value* found = first_hop(expr, frame, key);
    if (found != nullptr && found->is_integer()) return found->as_integer();
    v = finish_var(found, key, expr, frame);
  } else {
    v = eval(expr, frame);
  }
  if (!v.is_integer()) {
    if (indexed != nullptr) {
      fail(expr, "index of '" + indexed->text + "' must evaluate to an integer, got " +
                     v.type_name());
    }
    fail(expr, std::string("expected an integer, got ") + v.type_name());
  }
  return v.as_integer();
}

GraphNode* Interpreter::eval_node(const Expr& expr, const EnvPtr& frame) {
  Value v;
  if (expr.kind == Expr::Kind::kVar) {
    Key key;
    const Value* found = first_hop(expr, frame, key);
    if (found != nullptr && found->is_node()) return found->as_node();
    v = finish_var(found, key, expr, frame);
  } else {
    v = eval(expr, frame);
  }
  if (!v.is_node()) {
    fail(expr, std::string("expected an instance node, got ") + v.type_name());
  }
  return v.as_node();
}

Value Interpreter::eval_list(const Expr& expr, const EnvPtr& frame) {
  if (expr.elements.empty()) fail(expr, "cannot evaluate an empty list");
  const Expr& head = expr.elements.front();
  if (!head.is_simple_var()) fail(head, "operator position must be a plain name");

  try {
    if (head.sym < kBuiltinCount) return (this->*kHandlers[head.sym])(expr, frame);
    if (head.sym < definitions_.size() && definitions_[head.sym] != nullptr) {
      // Holding the definition keeps it alive if its body redefines it.
      const std::shared_ptr<const Definition> def = definitions_[head.sym];
      return call_definition(*def, expr, frame);
    }
  } catch (const LangError&) {
    throw;
  } catch (const StatusError&) {
    throw;  // a deadline or cancellation: the caller's verdict, not a design error
  } catch (const Error& e) {
    // Attach the call site to errors raised by value coercions etc.
    fail(expr, e.what());
  }
  fail(head, "unknown function or macro '" + head.text + "'");
}

Value Interpreter::call_definition(const Definition& def, const Expr& expr, const EnvPtr& frame) {
  const FrameLayout& layout = *def.layout;
  const std::size_t argc = expr.elements.size() - 1;
  if (argc != layout.formals.size()) {
    fail(expr, "'" + def.form->elements[1].text + "' expects " +
                   std::to_string(layout.formals.size()) + " argument(s), got " +
                   std::to_string(argc));
  }
  if (depth_ >= kMaxDepth) fail(expr, "call depth limit exceeded (runaway recursion?)");
  tick();

  // The frame is the definition's slot array (§4.5 sizes it from the
  // formal+local count); later bindings of a repeated name win.
  auto callee = std::make_shared<Environment>(symbols_, def.layout);
  for (std::size_t i = 0; i < argc; ++i) {
    callee->slot(layout.formals[i]) = eval(expr.elements[i + 1], frame);
  }
  for (const std::uint32_t local : layout.locals) callee->slot(local) = Value::nil();

  ++stats_.frames_created;
  ++stats_.procedure_calls;
  ++depth_;
  stats_.max_call_depth = std::max(stats_.max_call_depth, depth_);
  Value last;
  try {
    const RunningScope scope(running_, def.program.get());
    const std::vector<Expr>& forms = def.form->elements;
    for (std::size_t i = layout.body_start; i < forms.size(); ++i) last = eval(forms[i], callee);
  } catch (...) {
    --depth_;
    throw;
  }
  --depth_;

  // Functions return their last value; macros return their evaluation
  // environment so callers can pick results with subcell (§4.2).
  return def.is_macro ? Value::environment(std::move(callee)) : last;
}

// ---------------------------------------------------------------------------
// Special forms

void Interpreter::define_procedure(const Expr& expr, bool is_macro) {
  const char* what = is_macro ? "macro" : "defun";
  if (expr.elements.size() < 3) {
    fail(expr, std::string(what) + " needs a name and a formals list");
  }
  const Expr& name_expr = expr.elements[1];
  if (!name_expr.is_simple_var()) fail(name_expr, "procedure name must be a plain name");
  const std::string& name = name_expr.text;

  // §4.2: the interpreter must classify calls ahead of time, so macro names
  // must begin with 'm' and function names must not.
  if (is_macro && (name.empty() || name.front() != 'm')) {
    fail(name_expr, "macro name '" + name + "' must begin with 'm'");
  }
  if (!is_macro && !name.empty() && name.front() == 'm') {
    fail(name_expr, "function name '" + name + "' must not begin with 'm' (reserved for macros)");
  }
  if (name_expr.sym < kBuiltinCount) {
    fail(name_expr, "'" + name + "' is a built-in and cannot be redefined");
  }

  // The same layout the parser gave the body's variables their slots from;
  // a malformed formals or locals list fails here, when the form runs.
  auto def = std::make_shared<Definition>();
  def->is_macro = is_macro;
  def->layout = std::make_shared<const FrameLayout>(*frame_layout(
      expr, [this](const Expr& site, const char* message) { fail(site, message); }));
  def->form = &expr;
  def->program = running_->shared_from_this();
  if (name_expr.sym >= definitions_.size()) definitions_.resize(symbols_->size());
  definitions_[name_expr.sym] = std::move(def);
}

Value Interpreter::sf_defun(const Expr& expr, const EnvPtr&) {
  define_procedure(expr, /*is_macro=*/false);
  return Value::symbol(expr.elements[1].text);
}

Value Interpreter::sf_macro(const Expr& expr, const EnvPtr&) {
  define_procedure(expr, /*is_macro=*/true);
  return Value::symbol(expr.elements[1].text);
}

Value Interpreter::sf_cond(const Expr& expr, const EnvPtr& frame) {
  for (std::size_t i = 1; i < expr.elements.size(); ++i) {
    const Expr& clause = expr.elements[i];
    if (clause.kind != Expr::Kind::kList || clause.elements.empty()) {
      fail(clause, "cond clause must be (test statement...)");
    }
    if (eval(clause.elements[0], frame).truthy()) {
      Value last;
      for (std::size_t k = 1; k < clause.elements.size(); ++k) {
        last = eval(clause.elements[k], frame);
      }
      return last;
    }
  }
  return Value::nil();
}

Value Interpreter::sf_do(const Expr& expr, const EnvPtr& frame) {
  // (do (var init next exit) body...) — exit is tested BEFORE each
  // iteration, so (do (i 2 (+ 1 i) (> i 1)) ...) runs zero times.
  if (expr.elements.size() < 2 || expr.elements[1].kind != Expr::Kind::kList ||
      expr.elements[1].elements.size() != 4) {
    fail(expr, "do expects (do (var init next exit-condition) body...)");
  }
  const Expr& spec = expr.elements[1];
  const Expr& var = spec.elements[0];
  if (!var.is_simple_var()) fail(var, "do loop variable must be a plain name");

  bind_here(var, eval(spec.elements[1], frame), frame);
  Value last;
  for (;;) {
    if (eval(spec.elements[3], frame).truthy()) break;
    tick();
    for (std::size_t i = 2; i < expr.elements.size(); ++i) last = eval(expr.elements[i], frame);
    bind_here(var, eval(spec.elements[2], frame), frame);
  }
  return last;
}

Value Interpreter::sf_prog(const Expr& expr, const EnvPtr& frame) {
  Value last;
  for (std::size_t i = 1; i < expr.elements.size(); ++i) last = eval(expr.elements[i], frame);
  return last;
}

Value Interpreter::sf_assign(const Expr& expr, const EnvPtr& frame) {
  check_arity(expr, 2, "assign");
  const Key key = binding_key(expr.elements[1], frame);
  Value value = eval(expr.elements[2], frame);
  assign(expr.elements[1], key, value, frame);
  return value;
}

Value Interpreter::sf_print(const Expr& expr, const EnvPtr& frame) {
  Value last;
  std::string text;
  for (std::size_t i = 1; i < expr.elements.size(); ++i) {
    last = eval(expr.elements[i], frame);
    if (i > 1) text += ' ';
    text += last.to_display_string();
  }
  if (output_ != nullptr) *output_ << text << '\n';
  return last;
}

Value Interpreter::sf_read(const Expr& expr, const EnvPtr&) {
  check_arity(expr, 0, "read");
  if (input_ == nullptr) fail(expr, "read: no input stream attached to the interpreter");
  std::int64_t v = 0;
  if (!(*input_ >> v)) fail(expr, "read: no integer available on the input stream");
  return Value::integer(v);
}

}  // namespace rsg::lang
