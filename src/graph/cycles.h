// Cycle membership in a directed graph -- the one cycle search behind every
// global deadlock oracle (WaitForGraph::deadlocked_vertices(), the DDB
// transaction-wait oracle, the auditor's QRP1 check) and the DDB
// controller's local-cycle sweep.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace cmh::graph {

/// The cyclic components of the directed graph with edge list `edges` --
/// strongly connected components of two or more vertices, and self-loops --
/// each sorted ascending, ordered by their lowest vertex.  The ids are
/// renumbered densely (a sort, O(E log E)); the search itself is Tarjan's,
/// iterative and linear.
template <class Id>
[[nodiscard]] std::vector<std::vector<Id>> cyclic_components(
    const std::vector<std::pair<Id, Id>>& edges) {
  std::vector<Id> ids;
  for (const auto& [from, to] : edges) ids.insert(ids.end(), {from, to});
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto n = static_cast<std::uint32_t>(ids.size());
  const auto dense = [&ids](const Id& id) {
    return static_cast<std::uint32_t>(
        std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  };
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (const auto& [from, to] : edges) adj[dense(from)].push_back(dense(to));

  constexpr auto kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> index(n, kUnseen), low(n), open;
  std::vector<bool> is_open(n), self_loop(n);
  std::vector<std::vector<std::uint32_t>> components;
  std::vector<std::pair<std::uint32_t, std::size_t>> calls;  // (v, next edge)
  std::uint32_t next_index = 0;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] == kUnseen) calls.emplace_back(root, 0);
    while (!calls.empty()) {
      const auto [v, e] = calls.back();
      if (e == 0) {  // first visit: v joins the open components
        index[v] = low[v] = next_index++;
        open.push_back(v);
        is_open[v] = true;
      }
      if (e < adj[v].size()) {
        ++calls.back().second;
        const std::uint32_t w = adj[v][e];
        if (w == v) self_loop[v] = true;
        if (index[w] == kUnseen) {
          calls.emplace_back(w, 0);
        } else if (is_open[w]) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      calls.pop_back();
      if (!calls.empty()) {
        auto& parent_low = low[calls.back().first];
        parent_low = std::min(parent_low, low[v]);
      }
      if (low[v] != index[v]) continue;
      // v roots a strongly connected component: the open stack from v up.
      const auto first = std::find(open.rbegin(), open.rend(), v).base() - 1;
      for (auto it = first; it != open.end(); ++it) is_open[*it] = false;
      if (open.end() - first > 1 || self_loop[v]) {
        components.emplace_back(first, open.end());
        std::sort(components.back().begin(), components.back().end());
      }
      open.erase(first, open.end());
    }
  }
  std::sort(components.begin(), components.end());
  std::vector<std::vector<Id>> result;
  for (const auto& component : components) {
    auto& out = result.emplace_back();
    for (const std::uint32_t v : component) out.push_back(ids[v]);
  }
  return result;
}

/// The vertices lying on a cycle of the directed graph with edge list
/// `edges`: the union of its cyclic components, sorted ascending.
template <class Id>
[[nodiscard]] std::vector<Id> vertices_on_cycles(
    const std::vector<std::pair<Id, Id>>& edges) {
  std::vector<Id> result;
  for (const auto& component : cyclic_components(edges)) {
    result.insert(result.end(), component.begin(), component.end());
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace cmh::graph
