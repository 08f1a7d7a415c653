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
    auto pos = lower_bound_mut(key);
    if (pos == entries_.end() || pos->first != key) {
      pos = entries_.emplace(pos, key, V{});
    }
    return pos->second;
  }

  /// The value stored under `key`, or nullptr if the key is absent.
  [[nodiscard]] V* find(const K& key) {
    const auto pos = lower_bound_mut(key);
    return pos != entries_.end() && pos->first == key ? &pos->second : nullptr;
  }

  /// First entry whose key is not less than `key`.
  [[nodiscard]] const_iterator lower_bound(const K& key) const {
    return std::lower_bound(entries_.begin(), entries_.end(), key, KeyLess{});
  }

  /// Removes `key`'s entry; returns false if the key is absent.
  bool erase(const K& key) {
    const auto pos = lower_bound_mut(key);
    if (pos == entries_.end() || pos->first != key) return false;
    entries_.erase(pos);
    return true;
  }

  /// Removes every entry matching `pred`; returns how many were removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    return std::erase_if(entries_, pred);
  }

 private:
  struct KeyLess {
    bool operator()(const value_type& e, const K& k) const {
      return e.first < k;
    }
  };

  typename std::vector<value_type>::iterator lower_bound_mut(const K& key) {
    return std::lower_bound(entries_.begin(), entries_.end(), key, KeyLess{});
  }

  std::vector<value_type> entries_;
};

}  // namespace cmh
