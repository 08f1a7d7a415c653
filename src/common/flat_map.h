// Sorted flat map: the key-value companion of FlatSet.
//
// Entries live in one contiguous vector sorted by key.  Lookup is binary
// search, iteration visits keys in ascending order, and steady-state access
// never allocates once the vector has reached the working-set size -- the
// shape of the per-peer state a process keeps (latest computation per
// initiator, edge epochs, WFGD sets sent per predecessor) and of the
// simulator's per-source channel lists.  Inserting a new key shifts the
// tail; keys arrive once per peer, lookups are the steady state.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace cmh {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  /// The value stored under `key`; a value-initialized one is inserted at
  /// its sorted position first if the key is absent (std::map semantics).
  V& operator[](const K& key) {
    auto pos =
        std::lower_bound(entries_.begin(), entries_.end(), key, KeyLess{});
    if (pos == entries_.end() || pos->first != key) {
      pos = entries_.emplace(pos, key, V{});
    }
    return pos->second;
  }

 private:
  struct KeyLess {
    bool operator()(const value_type& e, const K& k) const {
      return e.first < k;
    }
  };

  std::vector<value_type> entries_;
};

}  // namespace cmh
