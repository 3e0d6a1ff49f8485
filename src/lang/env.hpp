// Environments and the §4.1 scoping discipline.
//
// Scoping is deliberately two-level, not a lexical chain: a lookup tries the
// environment of the procedure being executed, then the GLOBAL environment
// (set up by the parameter file), then the cell table (Figure 4.1). The
// thesis rejected dynamic scoping because walking the caller chain would be
// needless work when most free variables name cells or parameters.
//
// Bindings are keyed by symbol and indices (symbols.hpp), never by a name
// string. A procedure frame is an array of slots laid out at compile time —
// one per formal or local, which §4.5 sizes the frame from — plus a dynamic
// part for the names its body creates at run time (do variables, assign and
// mk_instance targets, indexed names). The global frame indexes its plain
// names by symbol id and keeps its indexed names in the dynamic part.
//
// Environments are heap-shared (EnvPtr) because macros return their frame
// and callers may retain it indefinitely (§4.2/§4.5); C++ shared_ptr plays
// the role of the CLU garbage collector here.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/ast.hpp"
#include "lang/value.hpp"

namespace rsg::lang {

class Environment {
 public:
  // The global frame: plain names are slots indexed by symbol id.
  explicit Environment(std::shared_ptr<const SymbolSpace> symbols);
  // A procedure frame: the layout's slots, all bound to nil.
  Environment(std::shared_ptr<const SymbolSpace> symbols,
              std::shared_ptr<const FrameLayout> layout);

  // nullptr when unbound.
  const Value* find(const Key& key) const;
  bool contains(const Key& key) const { return find(key) != nullptr; }
  void set(const Key& key, Value value);

  // A procedure frame's slot (always bound).
  Value& slot(std::uint32_t index) { return slots_[index].value; }

  // Lookup by spelled name ("l.3"), through the canonical rule of
  // SymbolSpace: for callers holding a macro's returned environment.
  const Value* find(const std::string& name) const;

 private:
  struct Slot {
    Value value;
    bool bound = false;
  };

  std::shared_ptr<const SymbolSpace> symbols_;
  std::shared_ptr<const FrameLayout> layout_;  // null: the global frame
  std::vector<Slot> slots_;
  std::unordered_map<Key, Value, KeyHash> dynamic_;
};

}  // namespace rsg::lang
