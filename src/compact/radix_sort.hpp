// The stable integer sort the flat pass orders boxes and variables with.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "geom/point.hpp"

namespace rsg::compact {

// Reorders `order`, a permutation of 0..key.size()-1, stably by key[v]
// ascending: an LSD radix sort of each key's offset from the smallest, one
// byte per pass, as many passes as the key range needs. Sorting by a minor
// key and then by a major one sorts by (major, minor).
template <class Index>
void stable_radix_sort(std::vector<Index>& order, const std::vector<Coord>& key) {
  Coord lo = std::numeric_limits<Coord>::max();
  for (const Coord k : key) lo = std::min(lo, k);
  const auto offset = [&](Index v) {
    return static_cast<std::uint64_t>(key[v]) - static_cast<std::uint64_t>(lo);
  };
  std::uint64_t range = 0;
  for (const Index v : order) range |= offset(v);
  std::vector<Index> sorted(order.size());
  for (unsigned shift = 0; shift < 64 && (range >> shift) != 0; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const Index v : order) ++start[((offset(v) >> shift) & 0xff) + 1];
    for (std::size_t d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (const Index v : order) sorted[start[(offset(v) >> shift) & 0xff]++] = v;
    order.swap(sorted);
  }
}

}  // namespace rsg::compact
