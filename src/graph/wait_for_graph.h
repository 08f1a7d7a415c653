// Colored wait-for graph -- the paper's basic-model state (section 2.2).
//
// Edge (v_i, v_j) means p_i sent a request to p_j and has not yet received
// the reply.  Colors:
//   grey  -- request in flight (sent, not yet received)
//   black -- request received, reply not yet sent
//   white -- reply in flight (sent, not yet received)
// Transitions enforce the graph axioms G1-G4; violating calls return a
// failed-precondition Status so tests can assert axiom enforcement.
//
// This class is the *global* view: tests and oracles use it as ground truth.
// Algorithm code only ever sees the local projections permitted by P3.
#pragma once

#include <functional>
#include <optional>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/status.h"

namespace cmh::graph {

enum class EdgeColor : std::uint8_t { kGrey, kBlack, kWhite };

[[nodiscard]] constexpr const char* to_string(EdgeColor c) {
  switch (c) {
    case EdgeColor::kGrey: return "grey";
    case EdgeColor::kBlack: return "black";
    case EdgeColor::kWhite: return "white";
  }
  return "?";
}

/// A dark edge is grey or black; dark cycles persist forever (section 2.4).
[[nodiscard]] constexpr bool is_dark(EdgeColor c) {
  return c != EdgeColor::kWhite;
}

struct Edge {
  ProcessId from;
  ProcessId to;

  friend constexpr auto operator<=>(const Edge&, const Edge&) = default;

  friend std::ostream& operator<<(std::ostream& os, const Edge& e) {
    return os << '(' << e.from << "->" << e.to << ')';
  }
};

}  // namespace cmh::graph

namespace std {
template <>
struct hash<cmh::graph::Edge> {
  size_t operator()(const cmh::graph::Edge& e) const noexcept {
    return cmh::hash_combine(std::hash<cmh::ProcessId>{}(e.from),
                             std::hash<cmh::ProcessId>{}(e.to));
  }
};
}  // namespace std

namespace cmh::graph {

class WaitForGraph {
 public:
  /// G1 (creation): adds grey edge (from, to); fails if the edge exists.
  Status create(ProcessId from, ProcessId to);

  /// G2 (blackening): grey -> black; fails unless the edge is grey.
  Status blacken(ProcessId from, ProcessId to);

  /// G3 (whitening): black -> white; fails unless the edge is black and
  /// `to` has no outgoing edges (only active processes may reply).
  Status whiten(ProcessId from, ProcessId to);

  /// G4 (deletion): removes the edge; fails unless it is white.
  Status remove(ProcessId from, ProcessId to);

  // ---- queries -----------------------------------------------------------

  [[nodiscard]] bool has_edge(ProcessId from, ProcessId to) const;
  [[nodiscard]] std::optional<EdgeColor> color(ProcessId from,
                                               ProcessId to) const;

  /// All successors of v (any color), in insertion-independent sorted order.
  [[nodiscard]] std::vector<ProcessId> successors(ProcessId v) const;

  /// All predecessors u such that edge (u, v) exists with the given color.
  [[nodiscard]] std::vector<ProcessId> predecessors(
      ProcessId v, std::optional<EdgeColor> filter = std::nullopt) const;

  [[nodiscard]] bool has_outgoing(ProcessId v) const;

  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }

  [[nodiscard]] std::vector<Edge> edges(
      std::optional<EdgeColor> filter = std::nullopt) const;

  /// Every vertex that currently appears as an endpoint of some edge.
  [[nodiscard]] std::vector<ProcessId> vertices() const;

  // ---- oracle queries (global knowledge; used by tests/benchmarks) -------

  /// True iff v lies on a cycle consisting solely of dark edges.  By the
  /// graph axioms such a cycle is permanent, i.e. v is deadlocked.
  [[nodiscard]] bool on_dark_cycle(ProcessId v) const;

  /// One dark cycle through v, if any (v first, successor order).
  [[nodiscard]] std::optional<std::vector<ProcessId>> dark_cycle_through(
      ProcessId v) const;

  /// All vertices lying on at least one dark cycle.
  [[nodiscard]] std::vector<ProcessId> deadlocked_vertices() const;

  /// All *black* edges lying on some all-black path from `from` to `to`
  /// (inclusive of cycle edges when from == to is reachable).  This is the
  /// fixpoint the section-5 WFGD computation converges to when `to` is the
  /// detecting initiator.
  [[nodiscard]] std::unordered_set<Edge> black_path_edges_to(
      ProcessId from, ProcessId to) const;

  /// Graphviz DOT rendering (grey/black/white edge styling).
  [[nodiscard]] std::string to_dot() const;

 private:
  [[nodiscard]] const EdgeColor* find(ProcessId from, ProcessId to) const;

  // v plus the vertices reachable from v (forward) or reaching v (backward)
  // over black edges only.
  [[nodiscard]] std::unordered_set<ProcessId> black_closure(ProcessId v,
                                                          bool forward) const;

  std::unordered_map<ProcessId, std::unordered_map<ProcessId, EdgeColor>>
      out_;
  std::unordered_map<ProcessId, std::unordered_set<ProcessId>> in_;
  std::size_t edge_count_{0};
};

}  // namespace cmh::graph
