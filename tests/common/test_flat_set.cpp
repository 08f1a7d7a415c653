// FlatSet: the sorted small-vector set behind the per-process edge sets,
// and FlatMap, its key-value companion behind the per-peer process state
// and the simulator's channel lists.  Validated against std::set / std::map
// as the reference models, including randomized mixed operation sequences.
#include "common/flat_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/rng.h"

namespace cmh {
namespace {

TEST(FlatSet, StartsEmpty) {
  FlatSet<int, 4> s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.begin(), s.end());
  EXPECT_FALSE(s.contains(1));
}

TEST(FlatSet, InsertKeepsSortedOrderAndDedupes) {
  FlatSet<int, 4> s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_TRUE(s.insert(1));
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));  // duplicate
  const std::vector<int> got(s.begin(), s.end());
  EXPECT_EQ(got, (std::vector<int>{1, 3, 5}));
}

TEST(FlatSet, GrowsPastInlineCapacity) {
  FlatSet<int, 2> s;
  for (int i = 9; i >= 0; --i) EXPECT_TRUE(s.insert(i));
  EXPECT_EQ(s.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.contains(i));
  int expected = 0;
  for (const int v : s) EXPECT_EQ(v, expected++);
}

TEST(FlatSet, EraseShiftsAndReports) {
  FlatSet<int, 4> s{1, 2, 3};
  EXPECT_TRUE(s.erase(2));
  EXPECT_FALSE(s.erase(2));
  EXPECT_FALSE(s.erase(7));
  const std::vector<int> got(s.begin(), s.end());
  EXPECT_EQ(got, (std::vector<int>{1, 3}));
}

TEST(FlatSet, EqualityIsElementwise) {
  FlatSet<int, 4> a{3, 1};
  FlatSet<int, 4> b{1, 3};
  FlatSet<int, 4> c{1, 2};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(FlatSet, CopyAndMovePreserveContents) {
  FlatSet<int, 2> original;
  for (int i = 0; i < 8; ++i) original.insert(i);  // forces heap storage
  FlatSet<int, 2> copy(original);
  EXPECT_EQ(copy, original);
  copy.insert(99);
  EXPECT_FALSE(copy == original);  // deep copy, not aliased

  FlatSet<int, 2> moved(std::move(copy));
  EXPECT_TRUE(moved.contains(99));
  EXPECT_EQ(moved.size(), 9u);

  FlatSet<int, 2> assigned;
  assigned = original;
  EXPECT_EQ(assigned, original);
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.contains(99));
}

TEST(FlatSet, RangeInsert) {
  const std::vector<int> values{4, 4, 2, 9, 2};
  FlatSet<int, 4> s;
  s.insert(values.begin(), values.end());
  const std::vector<int> got(s.begin(), s.end());
  EXPECT_EQ(got, (std::vector<int>{2, 4, 9}));
}

TEST(FlatSet, ClearKeepsCapacityUsable) {
  FlatSet<int, 2> s;
  for (int i = 0; i < 20; ++i) s.insert(i);
  s.clear();
  EXPECT_TRUE(s.empty());
  s.insert(42);
  EXPECT_TRUE(s.contains(42));
  EXPECT_EQ(s.size(), 1u);
}

TEST(FlatSet, WorksWithStrongIds) {
  FlatSet<ProcessId, 8> s;
  s.insert(ProcessId{7});
  s.insert(ProcessId{2});
  EXPECT_TRUE(s.contains(ProcessId{7}));
  EXPECT_FALSE(s.contains(ProcessId{3}));
  EXPECT_EQ(s.begin()->value(), 2u);
}

TEST(FlatSet, RandomizedAgainstStdSet) {
  Rng rng(0xFEEDu);
  FlatSet<std::uint32_t, 8> flat;
  std::set<std::uint32_t> reference;
  for (int step = 0; step < 2000; ++step) {
    const std::uint32_t v = static_cast<std::uint32_t>(rng.below(64));
    if (rng.below(3) == 0) {
      EXPECT_EQ(flat.erase(v), reference.erase(v) > 0);
    } else {
      EXPECT_EQ(flat.insert(v), reference.insert(v).second);
    }
    ASSERT_EQ(flat.size(), reference.size());
  }
  EXPECT_TRUE(std::equal(flat.begin(), flat.end(), reference.begin(),
                         reference.end()));
}

TEST(FlatMap, SubscriptInsertsValueInitializedAndKeepsKeysSorted) {
  FlatMap<ProcessId, std::uint64_t> m;
  EXPECT_TRUE(m.empty());
  m[ProcessId{9}] = 90;
  EXPECT_EQ(m[ProcessId{3}], 0u);
  ++m[ProcessId{5}];
  ++m[ProcessId{5}];
  ASSERT_EQ(m.size(), 3u);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
  for (const auto& [k, v] : m) entries.emplace_back(k.value(), v);
  EXPECT_EQ(entries, (std::vector<std::pair<std::uint32_t, std::uint64_t>>{
                         {3, 0}, {5, 2}, {9, 90}}));
}

TEST(FlatMap, HoldsNonTrivialValues) {
  FlatMap<std::uint32_t, FlatSet<std::uint32_t, 2>> m;
  for (std::uint32_t k = 10; k > 0; --k) {
    for (std::uint32_t v = 0; v < k; ++v) m[k].insert(v);
  }
  ASSERT_EQ(m.size(), 10u);
  for (const auto& [k, set] : m) EXPECT_EQ(set.size(), k);
}

TEST(FlatMap, RandomizedAgainstStdMap) {
  Rng rng(0xBEEFu);
  FlatMap<std::uint32_t, std::uint64_t> flat;
  std::map<std::uint32_t, std::uint64_t> reference;
  const auto same = [&] {
    return std::equal(flat.begin(), flat.end(), reference.begin(),
                      reference.end(), [](const auto& a, const auto& b) {
                        return a.first == b.first && a.second == b.second;
                      });
  };
  for (int step = 0; step < 2000; ++step) {
    const auto k = static_cast<std::uint32_t>(rng.below(64));
    const std::uint64_t v = rng.below(1000);
    flat[k] += v;
    reference[k] += v;
    ASSERT_TRUE(same()) << "step " << step;
  }
}

}  // namespace
}  // namespace cmh
