// Property tests pitting the graph oracles against brute-force
// re-implementations on random graphs.
#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/wait_for_graph.h"

namespace cmh::graph {
namespace {

/// Brute force: does a dark cycle through v exist?  Enumerate with DFS over
/// dark edges tracking the path.
bool brute_on_dark_cycle(const WaitForGraph& g, ProcessId v) {
  std::set<ProcessId> visiting;
  std::function<bool(ProcessId)> dfs = [&](ProcessId u) {
    for (const ProcessId w : g.successors(u)) {
      if (!is_dark(*g.color(u, w))) continue;
      if (w == v) return true;
      if (visiting.insert(w).second) {
        if (dfs(w)) return true;
      }
    }
    return false;
  };
  return dfs(v);
}

/// Brute force: all black edges lying on some black *walk* from `from`
/// to `to` -- edge (x,y) qualifies iff x is black-reachable from `from`
/// (reflexively) and `to` is black-reachable from y (reflexively).
/// Recomputed here with plain DFS for independence from the implementation.
std::set<Edge> brute_black_walk_edges(const WaitForGraph& g, ProcessId from,
                                      ProcessId to) {
  auto reach_fwd = [&](ProcessId start) {
    std::set<ProcessId> seen{start};
    std::function<void(ProcessId)> dfs = [&](ProcessId u) {
      for (const ProcessId w : g.successors(u)) {
        if (*g.color(u, w) != EdgeColor::kBlack) continue;
        if (seen.insert(w).second) dfs(w);
      }
    };
    dfs(start);
    return seen;
  };
  const auto from_set = reach_fwd(from);
  std::set<Edge> result;
  for (const Edge& e : g.edges(EdgeColor::kBlack)) {
    if (!from_set.contains(e.from)) continue;
    const auto mid = reach_fwd(e.to);
    if (mid.contains(to)) result.insert(e);
  }
  return result;
}

class OracleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleProperty, DarkCycleMatchesBruteForce) {
  const Scenario s = make_random_walk(9, 250, GetParam(), 0.55);
  for (const std::size_t cut :
       {s.script.size() / 3, 2 * s.script.size() / 3, s.script.size()}) {
    const WaitForGraph g = replay(s, cut);
    for (const ProcessId v : g.vertices()) {
      EXPECT_EQ(g.on_dark_cycle(v), brute_on_dark_cycle(g, v))
          << v << " at cut " << cut << " seed " << GetParam();
    }
  }
}

TEST_P(OracleProperty, DeadlockedVerticesMatchBruteForce) {
  const Scenario s = make_random_walk(9, 250, GetParam() * 3 + 2, 0.55);
  for (const std::size_t cut :
       {s.script.size() / 3, 2 * s.script.size() / 3, s.script.size()}) {
    const WaitForGraph g = replay(s, cut);
    std::vector<ProcessId> expected;
    for (const ProcessId v : g.vertices()) {
      if (brute_on_dark_cycle(g, v)) expected.push_back(v);
    }
    EXPECT_EQ(g.deadlocked_vertices(), expected)
        << "cut " << cut << " seed " << GetParam();
  }
}

TEST_P(OracleProperty, BlackPathEdgesMatchBruteForce) {
  const Scenario s = make_random_walk(8, 220, GetParam() * 7 + 1, 0.6);
  const WaitForGraph g = replay(s, s.script.size());
  const auto vertices = g.vertices();
  for (const ProcessId from : vertices) {
    for (const ProcessId to : vertices) {
      const auto got = g.black_path_edges_to(from, to);
      const auto expected = brute_black_walk_edges(g, from, to);
      EXPECT_EQ(std::set<Edge>(got.begin(), got.end()), expected)
          << from << "->" << to << " seed " << GetParam();
    }
  }
}

TEST_P(OracleProperty, CycleThroughIsActuallyACycle) {
  const Scenario s = make_random_walk(10, 300, GetParam() * 13 + 5, 0.6);
  const WaitForGraph g = replay(s, s.script.size());
  for (const ProcessId v : g.vertices()) {
    const auto cycle = g.dark_cycle_through(v);
    if (!cycle) continue;
    ASSERT_GE(cycle->size(), 2u);
    EXPECT_EQ((*cycle)[0], v);
    for (std::size_t i = 0; i < cycle->size(); ++i) {
      const ProcessId a = (*cycle)[i];
      const ProcessId b = (*cycle)[(i + 1) % cycle->size()];
      ASSERT_TRUE(g.has_edge(a, b)) << a << "->" << b;
      EXPECT_TRUE(is_dark(*g.color(a, b)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace cmh::graph
