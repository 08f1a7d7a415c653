// Property tests pitting Cluster::oracle_deadlocked() against a brute-force
// search over the global transaction-wait relation.
//
// Random lock/finish/abort steps drive a 3-site cluster on a small hot set,
// with detection off (kManual) so deadlocks persist, or on with victim
// aborts so resolution churns the lock tables.  After every step -- mid-run,
// with requests, grants and purges still in flight -- and at every
// simulator idle, the oracle must equal the transactions that reach
// themselves in the union of
//   * every site's intra-controller wait edges (LockManager::wait_edges), and
//   * the grey waits of in-flight requests: a request not yet queued or
//     granted at its owner will wait on the owner's current blockers.
// The reference keeps its own record of what each transaction requested and
// finds cycles by plain path-tracking DFS, independent of the oracle's graph
// code.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "ddb/cluster.h"

namespace cmh::ddb {
namespace {

constexpr std::uint32_t kSites = 3;
constexpr std::uint32_t kHotSet = 4;
constexpr std::size_t kMaxLive = 6;

struct Requested {
  ResourceId resource;
  LockMode mode;
};

/// Brute force: every transaction that reaches itself through at least one
/// edge, found by DFS over simple paths.
std::vector<TransactionId> brute_deadlocked(
    const std::map<TransactionId, std::set<TransactionId>>& adj) {
  std::vector<TransactionId> result;
  for (const auto& [start, unused] : adj) {
    std::set<TransactionId> visiting;
    std::function<bool(TransactionId)> dfs = [&](TransactionId u) {
      const auto it = adj.find(u);
      if (it == adj.end()) return false;
      for (const TransactionId w : it->second) {
        if (w == start) return true;
        if (visiting.insert(w).second && dfs(w)) return true;
      }
      return false;
    };
    if (dfs(start)) result.push_back(start);
  }
  return result;
}

class DdbOracleProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// Union of intra edges and grey waits, built from the lock tables and the
  /// test's own request log.
  std::map<TransactionId, std::set<TransactionId>> reference_graph(
      const Cluster& db) const {
    std::map<TransactionId, std::set<TransactionId>> adj;
    for (std::uint32_t s = 0; s < kSites; ++s) {
      for (const auto& [w, b] : db.controller(SiteId{s}).intra_edges()) {
        adj[w].insert(b);
      }
    }
    for (const auto& [txn, reqs] : requested_) {
      if (db.status(txn) != TxnStatus::kActive) continue;
      for (const Requested& req : reqs) {
        if (db.granted(txn, req.resource)) continue;
        const LockManager& owner =
            db.controller(db.owner_of(req.resource)).locks();
        if (owner.waiting(req.resource, txn) || owner.holds(req.resource, txn)) {
          continue;  // queued (an intra edge) or grant in flight
        }
        for (const TransactionId b : owner.blockers(req.resource, txn, req.mode)) {
          adj[txn].insert(b);
        }
      }
    }
    return adj;
  }

  void expect_oracle_matches(const Cluster& db, const char* where) {
    auto got = db.oracle_deadlocked();
    std::sort(got.begin(), got.end());
    const auto expected = brute_deadlocked(reference_graph(db));
    EXPECT_EQ(got, expected) << where << ", step " << step_ << ", seed "
                             << GetParam();
    if (!expected.empty()) ++deadlocked_checks_;
  }

  /// Active transactions whose every lock is granted (free to act).
  std::vector<TransactionId> runnable(const Cluster& db) const {
    std::vector<TransactionId> out;
    for (const auto& [txn, unused] : requested_) {
      if (db.status(txn) == TxnStatus::kActive && db.all_granted(txn)) {
        out.push_back(txn);
      }
    }
    return out;
  }

  std::vector<TransactionId> live(const Cluster& db) const {
    std::vector<TransactionId> out;
    for (const auto& [txn, unused] : requested_) {
      if (db.status(txn) == TxnStatus::kActive) out.push_back(txn);
    }
    return out;
  }

  void run_case(const DdbOptions& options) {
    Cluster db({.n_sites = kSites,
                .n_resources = kHotSet,
                .options = options,
                .seed = GetParam()});
    Rng rng(GetParam() * 31 + 7);
    for (step_ = 0; step_ < 400; ++step_) {
      const auto ready = runnable(db);
      const auto active = live(db);
      const std::uint64_t roll = rng.below(10);
      if (active.size() < kMaxLive && (roll < 2 || active.empty())) {
        requested_[db.begin(SiteId{
            static_cast<std::uint32_t>(rng.below(kSites))})];
      } else if (roll < 7 && !ready.empty()) {
        const TransactionId txn = ready[rng.below(ready.size())];
        auto& reqs = requested_[txn];
        std::vector<ResourceId> fresh;
        for (std::uint32_t r = 0; r < kHotSet; ++r) {
          const ResourceId res{r};
          if (std::none_of(reqs.begin(), reqs.end(), [&](const Requested& q) {
                return q.resource == res;
              })) {
            fresh.push_back(res);
          }
        }
        if (fresh.empty()) {
          db.finish(txn);
        } else {
          const ResourceId res = fresh[rng.below(fresh.size())];
          const LockMode mode =
              rng.below(4) == 0 ? LockMode::kRead : LockMode::kWrite;
          reqs.push_back(Requested{res, mode});
          db.lock(txn, res, mode);
        }
      } else if (roll < 8 && !ready.empty()) {
        db.finish(ready[rng.below(ready.size())]);
      } else if (roll < 9 && !active.empty()) {
        db.abort(active[rng.below(active.size())]);
      }
      expect_oracle_matches(db, "after a client step");
      // Mid-run: deliver a few events, leaving the rest in flight.
      const std::uint64_t deliveries = rng.below(4);
      for (std::uint64_t i = 0; i < deliveries && db.simulator().step(); ++i) {
        expect_oracle_matches(db, "mid-run");
      }
      if (rng.below(10) == 0) {
        db.simulator().run();
        expect_oracle_matches(db, "at idle");
      }
    }
    db.simulator().run();
    expect_oracle_matches(db, "at the final idle");
  }

  std::map<TransactionId, std::vector<Requested>> requested_;
  std::size_t step_{0};
  std::size_t deadlocked_checks_{0};
};

TEST_P(DdbOracleProperty, MatchesBruteForceWithoutDetection) {
  DdbOptions options;
  options.initiation = DdbInitiation::kManual;
  options.abort_victim = false;
  run_case(options);
  // Without detection, cycles persist: the property must have been checked
  // against non-empty ground truth, not only against the empty set.
  EXPECT_GT(deadlocked_checks_, 0u) << "seed " << GetParam();
}

TEST_P(DdbOracleProperty, MatchesBruteForceWithVictimAborts) {
  DdbOptions options;
  options.initiation = DdbInitiation::kOnBlock;
  options.abort_victim = true;
  run_case(options);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DdbOracleProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace cmh::ddb
