#include "lang/env.hpp"

#include <algorithm>

namespace rsg::lang {

Environment::Environment(std::shared_ptr<const SymbolSpace> symbols)
    : symbols_(std::move(symbols)) {
  slots_.reserve(symbols_->size());
}

Environment::Environment(std::shared_ptr<const SymbolSpace> symbols,
                         std::shared_ptr<const FrameLayout> layout)
    : symbols_(std::move(symbols)), layout_(std::move(layout)), slots_(layout_->names.size()) {
  for (Slot& slot : slots_) slot.bound = true;
}

const Value* Environment::find(const Key& key) const {
  if (key.count == 0) {
    if (layout_ == nullptr) {
      return key.sym < slots_.size() && slots_[key.sym].bound ? &slots_[key.sym].value : nullptr;
    }
    if (const std::uint32_t slot = layout_->slot_of(key.sym); slot != kNoSlot) {
      return &slots_[slot].value;
    }
  }
  if (dynamic_.empty()) return nullptr;
  const auto it = dynamic_.find(key);
  return it == dynamic_.end() ? nullptr : &it->second;
}

void Environment::set(const Key& key, Value value) {
  if (key.count == 0) {
    if (layout_ == nullptr) {
      if (key.sym >= slots_.size()) {
        slots_.resize(std::max<std::size_t>(key.sym + 1, symbols_->size()));
      }
      slots_[key.sym] = {std::move(value), true};
      return;
    }
    if (const std::uint32_t slot = layout_->slot_of(key.sym); slot != kNoSlot) {
      slots_[slot].value = std::move(value);
      return;
    }
  }
  dynamic_[key] = std::move(value);
}

const Value* Environment::find(const std::string& name) const {
  const std::optional<Key> key = symbols_->find_key(name);
  return key ? find(*key) : nullptr;
}

}  // namespace rsg::lang
