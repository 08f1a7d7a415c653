#include "ddb/lock_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"

namespace cmh::ddb {
namespace {

const TransactionId t1{1};
const TransactionId t2{2};
const TransactionId t3{3};
const ResourceId r1{1};
const ResourceId r2{2};
const SiteId here{0};
const SiteId other{1};

TEST(LockManager, FirstAcquireGranted) {
  LockManager lm;
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  EXPECT_TRUE(lm.holds(r1, t1));
  EXPECT_EQ(lm.held_mode(r1, t1), LockMode::kWrite);
}

TEST(LockManager, SharedReadersCoexist) {
  LockManager lm;
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_TRUE(lm.holds(r1, t1));
  EXPECT_TRUE(lm.holds(r1, t2));
}

TEST(LockManager, WriteBlocksBehindRead) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  EXPECT_FALSE(lm.holds(r1, t2));
  EXPECT_TRUE(lm.waiting(r1, t2));
}

TEST(LockManager, ReadBlocksBehindWrite) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kQueued);
}

TEST(LockManager, RedundantAcquire) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kRedundant);
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kRedundant);
}

TEST(LockManager, UpgradeSoleReaderInPlace) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.held_mode(r1, t1), LockMode::kWrite);
}

TEST(LockManager, ContendedUpgradeQueues) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kQueued);
  // Release the other reader: the upgrade completes.
  const auto granted = lm.release(r1, t2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].txn, t1);
  EXPECT_EQ(lm.held_mode(r1, t1), LockMode::kWrite);
}

TEST(LockManager, UpgradeDeadlockShapeProducesCrossWaits) {
  // Classic upgrade deadlock: both read, both try to upgrade.
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kQueued);
  EXPECT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  const auto edges = lm.wait_edges();
  // t1 waits on holder t2 and vice versa (each also waits on the other's
  // queued upgrade ahead of it, already covered by the holder edge).
  EXPECT_NE(std::find(edges.begin(), edges.end(), std::pair{t1, t2}),
            edges.end());
  EXPECT_NE(std::find(edges.begin(), edges.end(), std::pair{t2, t1}),
            edges.end());
}

TEST(LockManager, ReleaseGrantsFifo) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r1, t3, LockMode::kWrite, here),
            AcquireResult::kQueued);
  auto granted = lm.release(r1, t1);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].txn, t2);  // FIFO: t2 before t3
  granted = lm.release(r1, t2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].txn, t3);
}

TEST(LockManager, ReleaseGrantsMultipleReaders) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r1, t3, LockMode::kRead, here),
            AcquireResult::kQueued);
  const auto granted = lm.release(r1, t1);
  EXPECT_EQ(granted.size(), 2u);  // both readers at once
  EXPECT_TRUE(lm.holds(r1, t2));
  EXPECT_TRUE(lm.holds(r1, t3));
}

TEST(LockManager, NoOvertakingPastConflictingWaiter) {
  // Writer queued behind reader-holder; a later read must NOT overtake it.
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  EXPECT_EQ(lm.acquire(r1, t3, LockMode::kRead, here),
            AcquireResult::kQueued);
  // t3 waits for the queued writer t2 (and t2 waits for holder t1).
  const auto edges = lm.wait_edges();
  EXPECT_NE(std::find(edges.begin(), edges.end(), std::pair{t3, t2}),
            edges.end());
  EXPECT_NE(std::find(edges.begin(), edges.end(), std::pair{t2, t1}),
            edges.end());
}

TEST(LockManager, ReleaseUnheldIsNoop) {
  LockManager lm;
  EXPECT_TRUE(lm.release(r1, t1).empty());
}

TEST(LockManager, AbortReleasesEverythingAndCancelsQueued) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r2, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r2, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  const auto granted = lm.abort(t1);
  EXPECT_EQ(granted.size(), 2u);  // t2 acquires both
  EXPECT_FALSE(lm.holds(r1, t1));
  EXPECT_FALSE(lm.holds(r2, t1));
  EXPECT_TRUE(lm.holds(r1, t2));
  EXPECT_TRUE(lm.holds(r2, t2));
}

TEST(LockManager, AbortCancelsOwnQueuedRequests) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  (void)lm.abort(t2);
  EXPECT_FALSE(lm.waiting(r1, t2));
  EXPECT_TRUE(lm.release(r1, t1).empty());  // nobody left to grant
}

TEST(LockManager, HeldByListsResources) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r2, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.held_by(t1), (std::vector<ResourceId>{r1, r2}));
  EXPECT_TRUE(lm.held_by(t2).empty());
}

TEST(LockManager, WaitEdgesOnlyForConflicts) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r1, t3, LockMode::kRead, here),
            AcquireResult::kQueued);
  const auto edges = lm.wait_edges();
  // Both readers wait on the writer; they do NOT wait on each other.
  EXPECT_EQ(edges.size(), 2u);
  EXPECT_EQ(std::find(edges.begin(), edges.end(), std::pair{t3, t2}),
            edges.end());
}

TEST(LockManager, QueuedForTracksOrigin) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, other),
            AcquireResult::kQueued);
  EXPECT_TRUE(lm.queued_from(t2, other));
  EXPECT_FALSE(lm.queued_from(t2, here));
  EXPECT_FALSE(lm.queued_from(t1, other));  // t1 holds, queues nothing
}

TEST(LockManager, QueueDepth) {
  LockManager lm;
  EXPECT_EQ(lm.queue_depth(r1), 0u);
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r1, t3, LockMode::kWrite, here),
            AcquireResult::kQueued);
  EXPECT_EQ(lm.queue_depth(r1), 2u);
}

TEST(LockManager, QueuedRequestsEnumeratesAll) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r2, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, other),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r2, t3, LockMode::kRead, here),
            AcquireResult::kQueued);
  EXPECT_EQ(lm.queued_requests().size(), 2u);
}

// ---- per-transaction index vs full-scan derivations --------------------------

// Random acquire/release/abort sequences (with read->write upgrades, in
// place and queued, and repeated requests) on a small resource table.  After
// every step each per-transaction query is compared with a derivation that
// walks every resource or the full wait_edges() relation, so the index can
// never drift from the per-resource state it summarizes.
class LockIndexProperty {
 public:
  static constexpr std::uint32_t kTxns = 5;
  static constexpr std::uint32_t kResources = 4;
  static constexpr std::uint32_t kSites = 3;

  explicit LockIndexProperty(std::uint64_t seed) : rng_(seed) {}

  void step() {
    const TransactionId t{static_cast<std::uint32_t>(rng_.below(kTxns))};
    const ResourceId r{static_cast<std::uint32_t>(rng_.below(kResources))};
    const std::uint64_t op = rng_.below(10);
    if (op < 6) {
      const LockMode mode =
          rng_.chance(0.5) ? LockMode::kWrite : LockMode::kRead;
      const SiteId origin{static_cast<std::uint32_t>(rng_.below(kSites))};
      const std::optional<LockMode> before = lm_.held_mode(r, t);
      if (before.has_value() || lm_.waiting(r, t)) ++repeated_;
      const AcquireResult res = lm_.acquire(r, t, mode, origin);
      if (before == LockMode::kRead && mode == LockMode::kWrite) {
        ++(res == AcquireResult::kQueued ? queued_upgrades_
                                         : in_place_upgrades_);
      }
      if (res == AcquireResult::kGranted) on_granted(r, t, origin);
    } else if (op < 8) {
      origins_.erase({r, t});
      for (const LockRequest& g : lm_.release(r, t)) {
        on_granted(r, g.txn, g.origin);
      }
    } else {
      for (std::uint32_t k = 0; k < kResources; ++k) {
        origins_.erase({ResourceId{k}, t});
      }
      for (const auto& [res, g] : lm_.abort(t)) on_granted(res, g.txn, g.origin);
    }
  }

  void check() const {
    const auto edges = lm_.wait_edges();
    const auto all_queued = lm_.queued_requests();
    for (std::uint32_t ti = 0; ti < kTxns; ++ti) {
      const TransactionId t{ti};
      SCOPED_TRACE(testing::Message() << "txn " << ti);

      // Walk over every resource.
      bool queued_anywhere = false;
      std::vector<ResourceId> held;
      std::set<SiteId> origins;
      for (std::uint32_t k = 0; k < kResources; ++k) {
        const ResourceId r{k};
        queued_anywhere = queued_anywhere || lm_.waiting(r, t);
        if (!lm_.holds(r, t)) continue;
        held.push_back(r);
        ASSERT_TRUE(origins_.contains({r, t}));
        origins.insert(origins_.at({r, t}));
      }
      EXPECT_EQ(lm_.has_queued(t), queued_anywhere);
      EXPECT_EQ(lm_.held_by(t), held);
      // Written into caller storage, replacing what was there.
      std::vector<SiteId> got_origins{SiteId{99}};
      lm_.holding_origins(t, got_origins);
      EXPECT_EQ(got_origins,
                std::vector<SiteId>(origins.begin(), origins.end()));

      // queued_from(t, s) == some request in the txn's slice of
      // queued_requests() came from s.
      for (std::uint32_t si = 0; si < kSites; ++si) {
        const SiteId s{si};
        const bool want = std::any_of(
            all_queued.begin(), all_queued.end(), [&](const auto& entry) {
              return entry.second.txn == t && entry.second.origin == s;
            });
        EXPECT_EQ(lm_.queued_from(t, s), want) << "origin " << si;
      }

      // wait_targets == t's out-neighbours in wait_edges().
      std::set<TransactionId> want_targets;
      for (const auto& [w, b] : edges) {
        if (w == t) want_targets.insert(b);
      }
      std::vector<TransactionId> targets;
      lm_.wait_targets(t, targets);
      EXPECT_EQ(std::set<TransactionId>(targets.begin(), targets.end()),
                want_targets);

      // Reachability by search over wait_targets == over wait_edges().
      EXPECT_EQ(reachable(t, [&](TransactionId u,
                                 std::vector<TransactionId>& out) {
                  lm_.wait_targets(u, out);
                }),
                reachable(t, [&](TransactionId u,
                                 std::vector<TransactionId>& out) {
                  for (const auto& [w, b] : edges) {
                    if (w == u) out.push_back(b);
                  }
                }));
    }
  }

  std::uint64_t queued_upgrades_{0};
  std::uint64_t in_place_upgrades_{0};
  std::uint64_t repeated_{0};

 private:
  void on_granted(ResourceId r, TransactionId t, SiteId origin) {
    // A completed upgrade keeps the original acquisition's origin.
    origins_.emplace(std::pair{r, t}, origin);
  }

  template <typename Expand>
  static std::set<TransactionId> reachable(TransactionId from,
                                           const Expand& expand) {
    std::set<TransactionId> seen{from};
    std::vector<TransactionId> frontier{from};
    std::vector<TransactionId> next;
    while (!frontier.empty()) {
      const TransactionId u = frontier.back();
      frontier.pop_back();
      next.clear();
      expand(u, next);
      for (const TransactionId v : next) {
        if (seen.insert(v).second) frontier.push_back(v);
      }
    }
    return seen;
  }

  Rng rng_;
  LockManager lm_;
  // Origin of every holding, recorded from the grants the manager reports.
  std::map<std::pair<ResourceId, TransactionId>, SiteId> origins_;
};

TEST(LockManagerIndex, MatchesFullScanDerivations) {
  std::uint64_t queued_upgrades = 0;
  std::uint64_t in_place_upgrades = 0;
  std::uint64_t repeated = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    LockIndexProperty p(seed);
    for (int i = 0; i < 400; ++i) {
      p.step();
      p.check();
      if (testing::Test::HasFailure()) return;
    }
    queued_upgrades += p.queued_upgrades_;
    in_place_upgrades += p.in_place_upgrades_;
    repeated += p.repeated_;
  }
  // The sequences must actually reach the cases the index has to handle.
  EXPECT_GT(queued_upgrades, 0u);
  EXPECT_GT(in_place_upgrades, 0u);
  EXPECT_GT(repeated, 0u);
}

TEST(LockManagerIndex, AbortOfUnknownTransactionIsANoOp) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  EXPECT_TRUE(lm.abort(t2).empty());
  EXPECT_TRUE(lm.holds(r1, t1));
  EXPECT_FALSE(lm.has_queued(t2));
  std::vector<TransactionId> targets;
  lm.wait_targets(t2, targets);
  EXPECT_TRUE(targets.empty());
}

}  // namespace
}  // namespace cmh::ddb
