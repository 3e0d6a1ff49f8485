#include "lang/symbols.hpp"

#include <charconv>

namespace rsg::lang {

namespace {

// A canonical integer is exactly what std::to_string prints: no sign but
// '-', no leading zero, no "-0".
bool parse_canonical(std::string_view text, std::int64_t& value) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end && std::to_string(value) == text;
}

// Splits "base.i" / "base.i.j" into a base name and canonical indices;
// anything else is an opaque name with no indices.
struct Spelling {
  std::string_view base;
  Key key;  // count and indices; sym left for the caller
};

Spelling split(std::string_view name) {
  const std::size_t dot = name.find('.');
  if (dot == std::string_view::npos || dot == 0) return {name, {}};
  Spelling s{name.substr(0, dot), {}};
  std::string_view rest = name.substr(dot + 1);
  for (;;) {
    const std::size_t next = rest.find('.');
    if (s.key.count == 2 || !parse_canonical(rest.substr(0, next), s.key.index[s.key.count])) {
      return {name, {}};
    }
    ++s.key.count;
    if (next == std::string_view::npos) return s;
    rest = rest.substr(next + 1);
  }
}

}  // namespace

SymbolTable::SymbolTable() {
  for (const std::string_view name : kPreludeNames) intern(name);
}

SymbolId SymbolTable::intern(std::string_view name) {
  if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
  const auto id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<SymbolId> SymbolTable::find(std::string_view name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

SymbolSpace::SymbolSpace(std::shared_ptr<const SymbolTable> base)
    : base_(std::move(base)), base_size_(base_->size()) {}

SymbolId SymbolSpace::intern(std::string_view name) {
  if (const std::optional<SymbolId> id = find(name)) return *id;
  const auto id = static_cast<SymbolId>(size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<SymbolId> SymbolSpace::find(std::string_view name) const {
  if (const std::optional<SymbolId> id = base_->find(name)) return id;
  const auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

Key SymbolSpace::intern_key(std::string_view name) {
  Spelling s = split(name);
  s.key.sym = intern(s.base);
  return s.key;
}

std::optional<Key> SymbolSpace::find_key(std::string_view name) const {
  Spelling s = split(name);
  const std::optional<SymbolId> sym = find(s.base);
  if (!sym) return std::nullopt;
  s.key.sym = *sym;
  return s.key;
}

std::string SymbolSpace::spell(const Key& key) const {
  std::string text = name(key.sym);
  for (std::uint32_t i = 0; i < key.count; ++i) {
    text += '.';
    text += std::to_string(key.index[i]);
  }
  return text;
}

}  // namespace rsg::lang
