#include "graph/wait_for_graph.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "graph/cycles.h"

namespace cmh::graph {

namespace {
Status precondition(const std::string& what) {
  return {StatusCode::kFailedPrecondition, what};
}
}  // namespace

const EdgeColor* WaitForGraph::find(ProcessId from, ProcessId to) const {
  const auto it = out_.find(from);
  if (it == out_.end()) return nullptr;
  const auto jt = it->second.find(to);
  if (jt == it->second.end()) return nullptr;
  return &jt->second;
}

Status WaitForGraph::create(ProcessId from, ProcessId to) {
  if (from == to) return precondition("G1: self edge not allowed");
  if (find(from, to) != nullptr) {
    return precondition("G1: edge already exists");
  }
  out_[from][to] = EdgeColor::kGrey;
  in_[to].insert(from);
  ++edge_count_;
  return Status::Ok();
}

Status WaitForGraph::blacken(ProcessId from, ProcessId to) {
  const auto* c = find(from, to);
  if (c == nullptr) return precondition("G2: edge does not exist");
  if (*c != EdgeColor::kGrey) return precondition("G2: edge is not grey");
  out_[from][to] = EdgeColor::kBlack;
  return Status::Ok();
}

Status WaitForGraph::whiten(ProcessId from, ProcessId to) {
  const auto* c = find(from, to);
  if (c == nullptr) return precondition("G3: edge does not exist");
  if (*c != EdgeColor::kBlack) return precondition("G3: edge is not black");
  if (has_outgoing(to)) {
    return precondition("G3: replier has outgoing edges (not active)");
  }
  out_[from][to] = EdgeColor::kWhite;
  return Status::Ok();
}

Status WaitForGraph::remove(ProcessId from, ProcessId to) {
  const auto* c = find(from, to);
  if (c == nullptr) return precondition("G4: edge does not exist");
  if (*c != EdgeColor::kWhite) return precondition("G4: edge is not white");
  out_[from].erase(to);
  if (out_[from].empty()) out_.erase(from);
  in_[to].erase(from);
  if (in_[to].empty()) in_.erase(to);
  --edge_count_;
  return Status::Ok();
}

bool WaitForGraph::has_edge(ProcessId from, ProcessId to) const {
  return find(from, to) != nullptr;
}

std::optional<EdgeColor> WaitForGraph::color(ProcessId from,
                                             ProcessId to) const {
  const auto* c = find(from, to);
  if (c == nullptr) return std::nullopt;
  return *c;
}

std::vector<ProcessId> WaitForGraph::successors(ProcessId v) const {
  std::vector<ProcessId> result;
  const auto it = out_.find(v);
  if (it == out_.end()) return result;
  result.reserve(it->second.size());
  for (const auto& [to, color] : it->second) result.push_back(to);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<ProcessId> WaitForGraph::predecessors(
    ProcessId v, std::optional<EdgeColor> filter) const {
  std::vector<ProcessId> result;
  const auto it = in_.find(v);
  if (it == in_.end()) return result;
  for (const ProcessId from : it->second) {
    if (!filter || *find(from, v) == *filter) result.push_back(from);
  }
  std::sort(result.begin(), result.end());
  return result;
}

bool WaitForGraph::has_outgoing(ProcessId v) const {
  const auto it = out_.find(v);
  return it != out_.end() && !it->second.empty();
}

std::vector<Edge> WaitForGraph::edges(std::optional<EdgeColor> filter) const {
  std::vector<Edge> result;
  for (const auto& [from, adj] : out_) {
    for (const auto& [to, color] : adj) {
      if (!filter || color == *filter) result.push_back(Edge{from, to});
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<ProcessId> WaitForGraph::vertices() const {
  std::unordered_set<ProcessId> seen;
  for (const auto& [from, adj] : out_) {
    seen.insert(from);
    for (const auto& [to, color] : adj) seen.insert(to);
  }
  std::vector<ProcessId> result(seen.begin(), seen.end());
  std::sort(result.begin(), result.end());
  return result;
}

std::optional<std::vector<ProcessId>> WaitForGraph::dark_cycle_through(
    ProcessId v) const {
  // BFS over dark edges from each dark successor of v back to v, recording
  // parents so the cycle can be reconstructed.
  const auto it = out_.find(v);
  if (it == out_.end()) return std::nullopt;

  std::unordered_map<ProcessId, ProcessId> parent;
  std::deque<ProcessId> frontier;
  for (const auto& [succ, color] : it->second) {
    if (!is_dark(color)) continue;
    if (succ == v) continue;  // self edges are excluded by G1 anyway
    if (parent.emplace(succ, v).second) frontier.push_back(succ);
  }

  while (!frontier.empty()) {
    const ProcessId u = frontier.front();
    frontier.pop_front();
    const auto uit = out_.find(u);
    if (uit == out_.end()) continue;
    for (const auto& [w, color] : uit->second) {
      if (!is_dark(color)) continue;
      if (w == v) {
        std::vector<ProcessId> cycle{v};
        for (ProcessId x = u; x != v; x = parent.at(x)) cycle.push_back(x);
        std::reverse(cycle.begin() + 1, cycle.end());
        return cycle;
      }
      if (parent.emplace(w, u).second) frontier.push_back(w);
    }
  }
  return std::nullopt;
}

bool WaitForGraph::on_dark_cycle(ProcessId v) const {
  return dark_cycle_through(v).has_value();
}

std::vector<ProcessId> WaitForGraph::deadlocked_vertices() const {
  std::vector<std::pair<ProcessId, ProcessId>> dark;
  for (const auto& [from, adj] : out_) {
    for (const auto& [to, color] : adj) {
      if (is_dark(color)) dark.emplace_back(from, to);
    }
  }
  return vertices_on_cycles(dark);
}

std::unordered_set<ProcessId> WaitForGraph::black_closure(ProcessId v,
                                                          bool forward) const {
  std::unordered_set<ProcessId> seen{v};
  std::vector<ProcessId> frontier{v};
  const auto visit = [&](ProcessId w, ProcessId from, ProcessId to) {
    if (*find(from, to) == EdgeColor::kBlack && seen.insert(w).second) {
      frontier.push_back(w);
    }
  };
  while (!frontier.empty()) {
    const ProcessId u = frontier.back();
    frontier.pop_back();
    if (forward) {
      const auto it = out_.find(u);
      if (it == out_.end()) continue;
      for (const auto& [w, color] : it->second) visit(w, u, w);
    } else if (const auto it = in_.find(u); it != in_.end()) {
      for (const ProcessId w : it->second) visit(w, w, u);
    }
  }
  return seen;
}

std::unordered_set<Edge> WaitForGraph::black_path_edges_to(
    ProcessId from, ProcessId to) const {
  // A black edge (x, y) lies on a black path from `from` to `to` iff x is
  // black-reachable from `from` (or equals it) and `to` is black-reachable
  // from y (or equals it).
  const auto from_side = black_closure(from, /*forward=*/true);
  const auto to_side = black_closure(to, /*forward=*/false);

  std::unordered_set<Edge> result;
  for (const ProcessId x : from_side) {
    const auto it = out_.find(x);
    if (it == out_.end()) continue;
    for (const auto& [y, color] : it->second) {
      if (color == EdgeColor::kBlack && to_side.contains(y)) {
        result.insert(Edge{x, y});
      }
    }
  }
  return result;
}

std::string WaitForGraph::to_dot() const {
  std::ostringstream os;
  os << "digraph wfg {\n";
  for (const Edge& e : edges()) {
    const char* style = "solid";
    const char* c = to_string(*color(e.from, e.to));
    if (*color(e.from, e.to) == EdgeColor::kGrey) style = "dashed";
    if (*color(e.from, e.to) == EdgeColor::kWhite) style = "dotted";
    os << "  \"" << e.from << "\" -> \"" << e.to << "\" [style=" << style
       << ", label=\"" << c << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace cmh::graph
