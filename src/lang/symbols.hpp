// Symbols: the names of the design-file language, resolved once (Ch. 4).
//
// parse_program interns every identifier of a program into a SymbolTable
// and each Expr carries its name's id, so the interpreter never hashes a
// name string on the evaluation path. A table is immutable once the parser
// returns and is shared by every interpreter that runs the program — no
// lock sits between a lookup and its symbol.
//
// Every table starts with the same prelude: the built-in operators, at ids
// [0, kBuiltinCount) in the order of builtins.cpp's handler table, so a call
// head's id indexes that table directly; then the few names the interpreter
// itself binds or reads (true, false, nil, locals, c, count).
//
// Names an interpreter first meets at run time — parameter-file names the
// program never mentions, spellings reached through symbol values — go into
// that interpreter's SymbolSpace, an overlay on the shared table that dies
// with the interpreter, so a long-lived server does not grow a process-wide
// table on client-chosen names.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rsg::lang {

using SymbolId = std::uint32_t;

inline constexpr std::string_view kPreludeNames[] = {
    // Built-in operators, in the order of builtins.cpp's handler table.
    "defun", "macro", "cond", "do", "prog", "assign", "setq", "print", "read", "+", "-", "*", "//",
    "mod", "=", "/=", ">", "<", ">=", "<=", "and", "or", "not", "mk_instance", "connect", "mk_cell",
    "subcell", "declare_interface", "array", "tt_inputs", "tt_outputs", "tt_terms", "tt_in",
    "tt_out",
    // Names the interpreter binds or reads itself.
    "true", "false", "nil", "locals", "c", "count"};

inline constexpr SymbolId kBuiltinCount = 34;
inline constexpr SymbolId kSymDefun = 0;
inline constexpr SymbolId kSymMacro = 1;
inline constexpr SymbolId kSymTrue = kBuiltinCount;
inline constexpr SymbolId kSymFalse = kBuiltinCount + 1;
inline constexpr SymbolId kSymNil = kBuiltinCount + 2;
inline constexpr SymbolId kSymLocals = kBuiltinCount + 3;
inline constexpr SymbolId kSymC = kBuiltinCount + 4;
inline constexpr SymbolId kSymCount = kBuiltinCount + 5;
static_assert(std::size(kPreludeNames) == kSymCount + 1);

// A binding's key: a symbol and up to two integer indices. The indexed
// variable `l.3` binds {l, 1, {3, 0}}; `cl.3.7` binds {cl, 2, {3, 7}}.
struct Key {
  SymbolId sym = 0;
  std::uint32_t count = 0;
  std::int64_t index[2] = {0, 0};

  friend bool operator==(const Key&, const Key&) = default;
};

struct KeyHash {
  std::size_t operator()(const Key& key) const noexcept {
    std::uint64_t h = ((std::uint64_t{key.sym} << 2) | key.count) * 0x9E3779B97F4A7C15ull;
    h ^= static_cast<std::uint64_t>(key.index[0]) * 0xC2B2AE3D27D4EB4Full;
    h = (h << 29) | (h >> 35);
    h ^= static_cast<std::uint64_t>(key.index[1]) * 0x165667B19E3779F9ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

// Heterogeneous string hashing, so string_view probes allocate nothing.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view name) const noexcept {
    return std::hash<std::string_view>{}(name);
  }
};

// A program's names, fixed at compile time.
class SymbolTable {
 public:
  SymbolTable();  // the prelude only

  SymbolId intern(std::string_view name);
  std::optional<SymbolId> find(std::string_view name) const;
  const std::string& name(SymbolId id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, SymbolId, NameHash, std::equal_to<>> ids_;
};

// One interpreter's names: a shared, immutable SymbolTable (ids below its
// size) plus an overlay of the names first met at run time.
//
// Names that arrive as strings — parameter-file names, symbol values,
// set_global — map to keys by one canonical rule, the inverse of spelling
// a key: a base name followed by one or two canonical integers is indexed
// ("l.3" is {l, 1, {3}}, "l.-1" is {l, 1, {-1}}); any other string is one
// opaque name ("l.03", "a.1.2.3", "l." and "x" are each a whole symbol).
// An indexed reference spells exactly the canonical forms, so a string and
// a reference meet on a binding exactly when their spellings are equal.
class SymbolSpace {
 public:
  explicit SymbolSpace(std::shared_ptr<const SymbolTable> base);

  const std::shared_ptr<const SymbolTable>& base() const { return base_; }

  SymbolId intern(std::string_view name);
  std::optional<SymbolId> find(std::string_view name) const;
  const std::string& name(SymbolId id) const {
    return id < base_size_ ? base_->name(id) : names_[id - base_size_];
  }
  std::size_t size() const { return base_size_ + names_.size(); }

  // The canonical key of `name`, interning its base name.
  Key intern_key(std::string_view name);
  // nullopt when no binding can have this name (its base was never seen).
  std::optional<Key> find_key(std::string_view name) const;
  // The inverse: "l.3" for {l, 1, {3}}.
  std::string spell(const Key& key) const;

 private:
  std::shared_ptr<const SymbolTable> base_;
  std::size_t base_size_ = 0;
  std::vector<std::string> names_;  // id base_size_ + i
  std::unordered_map<std::string, SymbolId, NameHash, std::equal_to<>> ids_;
};

}  // namespace rsg::lang
