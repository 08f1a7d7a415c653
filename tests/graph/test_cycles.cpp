// The shared cycle search (graph/cycles.h): hand-built shapes, including the
// self-loop the DDB oracle counts and paths deep enough that a recursive
// search would exhaust the stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/cycles.h"

namespace cmh::graph {
namespace {

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
using Ids = std::vector<std::uint32_t>;

TEST(Cycles, EmptyAndAcyclicGraphsHaveNoCycle) {
  EXPECT_TRUE(vertices_on_cycles(Edges{}).empty());
  EXPECT_TRUE(vertices_on_cycles(Edges{{0, 1}, {1, 2}}).empty());
  // A diamond: two paths to one sink, still acyclic.
  EXPECT_TRUE(
      vertices_on_cycles(Edges{{0, 1}, {0, 2}, {1, 3}, {2, 3}}).empty());
}

TEST(Cycles, SelfLoopCountsAsACycle) {
  EXPECT_EQ(vertices_on_cycles(Edges{{0, 0}, {1, 0}}), (Ids{0}));
}

TEST(Cycles, OnlyVerticesOnTheCycleAreMarked) {
  // 0 -> 1 -> 2 -> 1 (cycle {1,2}), 2 -> 3 (tail), 4 -> 0 (lead-in).
  EXPECT_EQ(vertices_on_cycles(Edges{{0, 1}, {1, 2}, {2, 1}, {2, 3}, {4, 0}}),
            (Ids{1, 2}));
}

TEST(Cycles, TwoComponentsJoinedByABridge) {
  // {0,1} and {2,3} are cycles; the edge 1 -> 2 joins them one way only.
  EXPECT_EQ(vertices_on_cycles(
                Edges{{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}, {4, 3}}),
            (Ids{0, 1, 2, 3}));
}

TEST(Cycles, DeepPathsDoNotRecurse) {
  constexpr std::uint32_t kN = 1u << 20;
  Edges ring;
  for (std::uint32_t v = 0; v < kN; ++v) ring.emplace_back(v, (v + 1) % kN);
  EXPECT_EQ(vertices_on_cycles(ring).size(), kN);
  ring.pop_back();  // now a path: nothing on a cycle
  EXPECT_TRUE(vertices_on_cycles(ring).empty());
}

TEST(Cycles, SparseIdsComeBackSorted) {
  const std::vector<std::pair<std::string, std::string>> edges{
      {"d", "b"}, {"b", "d"}, {"a", "d"}, {"z", "z"}, {"c", "a"}};
  EXPECT_EQ(vertices_on_cycles(edges),
            (std::vector<std::string>{"b", "d", "z"}));
}

}  // namespace
}  // namespace cmh::graph
