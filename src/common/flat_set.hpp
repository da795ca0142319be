// Small per-peer sets as sorted, unique `std::vector`s.
//
// A peer announces about a dozen protocols and connects from one or two
// IPs; a node-based `std::set` spends an allocation and ~32 bytes of
// overhead on each.  These helpers keep a plain vector sorted and unique,
// so iteration order is the one the `std::set` had; look a value up with
// `std::ranges::binary_search`.
#pragma once

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

namespace ipfs::common {

/// Sort `values` and drop duplicates, turning any list into a flat set.
template <class T>
void flat_normalize(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

/// Insert `value` into the flat set; returns true when it was new.
template <class T>
bool flat_insert(std::vector<T>& set, const T& value) {
  const auto it = std::lower_bound(set.begin(), set.end(), value);
  if (it != set.end() && *it == value) return false;
  set.insert(it, value);
  return true;
}

/// `set` ∪= `other`, both flat sets.
template <class T>
void flat_union(std::vector<T>& set, const std::vector<T>& other) {
  if (other.empty()) return;
  std::vector<T> merged;
  merged.reserve(set.size() + other.size());
  std::set_union(set.begin(), set.end(), other.begin(), other.end(),
                 std::back_inserter(merged));
  set = std::move(merged);
}

}  // namespace ipfs::common
