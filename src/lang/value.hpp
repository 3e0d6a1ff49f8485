// Runtime values of the design-file language.
//
// The language has no list type (§4: arrays-by-indexed-variables replace
// lists); its values are integers, booleans, strings, symbols, cell
// definitions, connectivity-graph nodes (partial instances), and whole
// environments — the last because macros return their evaluation
// environment (§4.2), which is the RSG's mechanism for returning several
// objects at once.
//
// Symbols are distinct from strings: a parameter-file assignment like
// `corecell = basiccell` binds corecell to the SYMBOL basiccell, and the
// scoping rules of §4.1 re-resolve that symbol (environment → global → cell
// table) at each use — the "personalization of variable names" mechanism of
// Figure 4.1.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>

#include "graph/connectivity_graph.hpp"
#include "layout/cell.hpp"

namespace rsg::lang {

class Environment;
using EnvPtr = std::shared_ptr<Environment>;

// A symbol value (an unresolved name).
struct Symbol {
  std::string name;
  friend bool operator==(const Symbol&, const Symbol&) = default;
};

class Value {
 public:
  Value() = default;  // nil
  static Value nil() { return Value(); }
  static Value integer(std::int64_t v) { return Value(Storage{v}); }
  static Value boolean(bool v) { return Value(Storage{v}); }
  static Value string(std::string v) { return Value(Storage{std::move(v)}); }
  static Value symbol(std::string name) { return Value(Storage{Symbol{std::move(name)}}); }
  static Value cell(const Cell* c) { return Value(Storage{c}); }
  static Value node(GraphNode* n) { return Value(Storage{n}); }
  static Value environment(EnvPtr e) { return Value(Storage{std::move(e)}); }

  bool is_nil() const { return std::holds_alternative<std::monostate>(storage_); }
  bool is_integer() const { return std::holds_alternative<std::int64_t>(storage_); }
  bool is_boolean() const { return std::holds_alternative<bool>(storage_); }
  bool is_string() const { return std::holds_alternative<std::string>(storage_); }
  bool is_symbol() const { return std::holds_alternative<Symbol>(storage_); }
  bool is_cell() const { return std::holds_alternative<const Cell*>(storage_); }
  bool is_node() const { return std::holds_alternative<GraphNode*>(storage_); }
  bool is_environment() const { return std::holds_alternative<EnvPtr>(storage_); }

  // Checked accessors; throw rsg::Error with the expected/actual type names.
  std::int64_t as_integer() const;
  bool as_boolean() const;
  const std::string& as_string() const;
  const Symbol& as_symbol() const;
  const Cell* as_cell() const;
  GraphNode* as_node() const;
  const EnvPtr& as_environment() const;

  // Truthiness: nil and false are false; 0 is false; everything else true.
  bool truthy() const;

  // Human-readable form for print and diagnostics.
  std::string to_display_string() const;
  const char* type_name() const;

  friend bool operator==(const Value& a, const Value& b) {
    // Loop tests compare integers; skip the variant's visit for them.
    const auto* x = std::get_if<std::int64_t>(&a.storage_);
    const auto* y = std::get_if<std::int64_t>(&b.storage_);
    if (x != nullptr && y != nullptr) return *x == *y;
    return a.storage_ == b.storage_;
  }

 private:
  using Storage = std::variant<std::monostate, std::int64_t, bool, std::string, Symbol,
                               const Cell*, GraphNode*, EnvPtr>;
  explicit Value(Storage storage) : storage_(std::move(storage)) {}

  Storage storage_;
};

}  // namespace rsg::lang
