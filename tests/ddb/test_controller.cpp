// Direct Controller unit tests with hand-delivered messages, including
// regression tests for the subtle races found during development:
//   * zombie lock requests overtaken by an abort purge (tombstones),
//   * grant reshuffles creating wait edges without block events,
//   * the degenerate two-agent probe bounce over release-wait edges,
//   * floor corruption by forwarders (stale-tag rule, section 4.3/6.7),
//   * stale labels acting across probe receipts.
#include "ddb/controller.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>

namespace cmh::ddb {
namespace {

/// Manual message fabric for controllers: sends queue per channel; tests
/// deliver selectively (FIFO per channel, arbitrary interleaving across
/// channels -- exactly the paper's network model).
class Rig {
 public:
  explicit Rig(std::uint32_t n_sites, DdbOptions options = manual_options()) {
    for (std::uint32_t i = 0; i < n_sites; ++i) {
      const SiteId id{i};
      controllers_.push_back(std::make_unique<Controller>(
          id, n_sites,
          [this, id](SiteId to, BytesView payload) {
            wires_[{id, to}].emplace_back(payload.begin(), payload.end());
          },
          [n_sites](ResourceId r) { return SiteId{r.value() % n_sites}; },
          options, TimerFn{}));
      controllers_.back()->set_deadlock_callback(
          [this, id](TransactionId victim, const DdbProbeTag& tag) {
            declared_.emplace_back(id, victim, tag);
          });
    }
  }

  static DdbOptions manual_options() {
    DdbOptions o;
    o.initiation = DdbInitiation::kManual;
    o.abort_victim = false;
    return o;
  }

  using TimerFn = cmh::TimerFn;

  Controller& c(std::uint32_t i) { return *controllers_.at(i); }

  std::size_t pending(std::uint32_t from, std::uint32_t to) {
    return wires_[{SiteId{from}, SiteId{to}}].size();
  }

  void deliver_one(std::uint32_t from, std::uint32_t to) {
    auto& q = wires_.at({SiteId{from}, SiteId{to}});
    ASSERT_FALSE(q.empty());
    const Bytes payload = q.front();
    q.pop_front();
    ASSERT_TRUE(c(to).on_message(SiteId{from}, payload).ok());
  }

  void deliver_all() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto& [channel, q] : wires_) {
        while (!q.empty()) {
          const Bytes payload = q.front();
          q.pop_front();
          ASSERT_TRUE(controllers_[channel.second.value()]
                          ->on_message(channel.first, payload)
                          .ok());
          progressed = true;
        }
      }
    }
  }

  /// Drops every pending message on one channel (models nothing -- used to
  /// hold a message back while delivering others first).
  std::deque<Bytes> take_channel(std::uint32_t from, std::uint32_t to) {
    auto& q = wires_[{SiteId{from}, SiteId{to}}];
    std::deque<Bytes> taken = std::move(q);
    q.clear();
    return taken;
  }

  void inject(std::uint32_t from, std::uint32_t to, const Bytes& payload) {
    ASSERT_TRUE(c(to).on_message(SiteId{from}, payload).ok());
  }

  struct Declared {
    Declared(SiteId s, TransactionId v, DdbProbeTag t)
        : site(s), victim(v), tag(t) {}
    SiteId site;
    TransactionId victim;
    DdbProbeTag tag;
  };
  const std::vector<Declared>& declared() const { return declared_; }

 private:
  std::vector<std::unique_ptr<Controller>> controllers_;
  std::map<std::pair<SiteId, SiteId>, std::deque<Bytes>> wires_;
  std::vector<Declared> declared_;
};

const TransactionId t1{1};
const TransactionId t2{2};
// Resource placement in the rig: r % n_sites.
ResourceId res_at(std::uint32_t site, std::uint32_t k, std::uint32_t n) {
  return ResourceId{site + k * n};
}

// ---- lock routing ---------------------------------------------------------------

TEST(Controller, LocalLockSynchronousGrant) {
  Rig rig(2);
  EXPECT_TRUE(rig.c(0).lock(t1, res_at(0, 0, 2), LockMode::kWrite));
  EXPECT_TRUE(rig.c(0).locks().holds(res_at(0, 0, 2), t1));
}

TEST(Controller, RemoteLockForwardedAndGranted) {
  Rig rig(2);
  const ResourceId r = res_at(1, 0, 2);
  EXPECT_FALSE(rig.c(0).lock(t1, r, LockMode::kWrite));
  EXPECT_EQ(rig.pending(0, 1), 1u);  // RemoteLockRequest in flight
  EXPECT_EQ(rig.c(0).pending_remote_sites(t1), (std::vector<SiteId>{SiteId{1}}));
  rig.deliver_all();  // request lands, grant returns
  EXPECT_TRUE(rig.c(1).locks().holds(r, t1));
  EXPECT_TRUE(rig.c(0).pending_remote_sites(t1).empty());
}

TEST(Controller, BlockedQueries) {
  Rig rig(2);
  const ResourceId local = res_at(0, 0, 2);
  ASSERT_TRUE(rig.c(0).lock(t1, local, LockMode::kWrite));
  EXPECT_FALSE(rig.c(0).blocked(t1));
  rig.c(0).lock(t2, local, LockMode::kWrite);  // queues
  EXPECT_TRUE(rig.c(0).blocked(t2));
}

TEST(Controller, FinishBroadcastsPurgeAndReleasesEverywhere) {
  Rig rig(3);
  const ResourceId remote = res_at(1, 0, 3);
  rig.c(0).lock(t1, remote, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(1).locks().holds(remote, t1));
  rig.c(0).finish(t1);
  EXPECT_EQ(rig.pending(0, 1), 1u);
  EXPECT_EQ(rig.pending(0, 2), 1u);
  rig.deliver_all();
  EXPECT_FALSE(rig.c(1).locks().holds(remote, t1));
}

// ---- regression: zombie request vs abort purge ------------------------------------

TEST(ControllerRegression, AbortPurgeOvertakingRequestLeavesNoZombie) {
  // t1 (home S0) sends a lock request to S2 while S1 declares/aborts t1.
  // The purge (S1 -> S2) is delivered BEFORE the request (S0 -> S2): the
  // request must die on the tombstone instead of occupying the resource.
  Rig rig(3);
  const ResourceId r = res_at(2, 0, 3);
  rig.c(0).lock(t1, r, LockMode::kWrite);  // request S0 -> S2 in flight
  rig.c(1).abort(t1);                      // purge broadcast from S1
  rig.deliver_one(1, 2);                   // purge overtakes
  rig.deliver_one(0, 2);                   // zombie request arrives
  EXPECT_FALSE(rig.c(2).locks().holds(r, t1));
  EXPECT_EQ(rig.c(2).locks().queue_depth(r), 0u);
  // And a second transaction can take the resource.
  rig.deliver_all();
  rig.c(2).lock(t2, r, LockMode::kWrite);
  EXPECT_TRUE(rig.c(2).locks().holds(r, t2));
}

TEST(ControllerRegression, LocalLockAfterLocalAbortRefused) {
  // The declaring controller itself must refuse later lock calls for the
  // victim (its home may not have heard yet and may keep driving it).
  Rig rig(2);
  const ResourceId r = res_at(0, 0, 2);
  rig.c(0).lock(t1, r, LockMode::kWrite);
  rig.c(0).abort(t1);
  EXPECT_FALSE(rig.c(0).lock(t1, res_at(0, 1, 2), LockMode::kWrite));
  EXPECT_FALSE(rig.c(0).locks().holds(res_at(0, 1, 2), t1));
}

// ---- probe computation: two-site deadlock -----------------------------------------

/// Builds the canonical cross-site deadlock:
///   t1 (home S0) holds rA@S0, waits rB@S1 (queued).
///   t2 (home S1) holds rB@S1, waits rA@S0 (queued).
void build_cross_deadlock(Rig& rig, ResourceId& rA, ResourceId& rB) {
  rA = res_at(0, 0, 2);
  rB = res_at(1, 0, 2);
  ASSERT_TRUE(rig.c(0).lock(t1, rA, LockMode::kWrite));
  ASSERT_TRUE(rig.c(1).lock(t2, rB, LockMode::kWrite));
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.c(1).lock(t2, rA, LockMode::kWrite);
  rig.deliver_all();
}

TEST(ControllerProbe, CrossSiteDeadlockDetectedFromEitherSide) {
  for (const std::uint32_t initiator : {0u, 1u}) {
    Rig rig(2);
    ResourceId rA, rB;
    build_cross_deadlock(rig, rA, rB);
    const TransactionId target = initiator == 0 ? t1 : t2;
    ASSERT_TRUE(rig.c(initiator).initiate_for(target).has_value());
    rig.deliver_all();
    ASSERT_EQ(rig.declared().size(), 1u) << "initiator " << initiator;
    EXPECT_EQ(rig.declared()[0].victim, target);
    EXPECT_EQ(rig.declared()[0].site, SiteId{initiator});
  }
}

TEST(ControllerProbe, InitiateForUnblockedProcessReturnsNothing) {
  Rig rig(2);
  ASSERT_TRUE(rig.c(0).lock(t1, res_at(0, 0, 2), LockMode::kWrite));
  EXPECT_EQ(rig.c(0).initiate_for(t1), std::nullopt);
}

TEST(ControllerProbe, NoCycleNoDeclaration) {
  // t1 waits on t2 (remote), t2 is active holding: no cycle.
  Rig rig(2);
  const ResourceId rB = res_at(1, 0, 2);
  ASSERT_TRUE(rig.c(1).lock(t2, rB, LockMode::kWrite));
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_all();
  EXPECT_TRUE(rig.declared().empty());
}

// ---- regression: degenerate release-wait bounce ------------------------------------

TEST(ControllerRegression, HoldHereWaitThereIsNotADeadlock) {
  // t1 (home S0) holds rB@S1 and separately waits for rC@S2 held by t2
  // (t2 active).  The agent pair (t1,S0) <-> (t1,S1) must not be declared
  // a cycle: the holding and the pending acquisition concern different
  // resources.
  Rig rig(3);
  const ResourceId rB = res_at(1, 0, 3);
  const ResourceId rC = res_at(2, 0, 3);
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(1).locks().holds(rB, t1));
  ASSERT_TRUE(rig.c(2).lock(t2, rC, LockMode::kWrite));
  rig.c(0).lock(t1, rC, LockMode::kWrite);  // queues behind t2
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  // Also poke every other entry point.
  (void)rig.c(1).check_all();
  (void)rig.c(2).check_all();
  rig.deliver_all();
  EXPECT_TRUE(rig.declared().empty());
}

TEST(ControllerProbe, ReleaseWaitCycleDetected) {
  // The shape that NEEDS release-wait edges:
  //   t1 (home S0) holds rB@S1 (remote), waits rC@S2 (queued behind t2).
  //   t2 (home S2) holds rC@S2 (local), waits rB@S1 (queued behind t1).
  // Cycle: (t1,S0) -acq-> (t1,S2) -intra-> (t2,S2) -acq-> (t2,S1)
  //        -intra-> (t1,S1) -release-wait-> (t1,S0).
  Rig rig(3);
  const ResourceId rB = res_at(1, 0, 3);
  const ResourceId rC = res_at(2, 0, 3);
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(2).lock(t2, rC, LockMode::kWrite));
  rig.c(0).lock(t1, rC, LockMode::kWrite);  // t1 waits on t2
  rig.c(2).lock(t2, rB, LockMode::kWrite);  // t2 waits on t1 (via holding)
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_all();
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].victim, t1);
}

// ---- regression: floor propagation --------------------------------------------------

TEST(ControllerRegression, ForwarderDoesNotCorruptInitiatorFloor) {
  // S0 runs many computations (driving its own sequence numbers high);
  // afterwards S1 initiates its FIRST computation (sequence 1).  S0
  // forwards S1's probe; the forwarded probe must carry S1's floor, not
  // S0's -- otherwise S1 drops its own live computation as stale.
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  // Burn sequence numbers at S0 without resolving anything: initiate for
  // t2 (blocked at S0 via its queued forwarded request) repeatedly.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rig.c(0).initiate_for(t2).has_value());
  }
  (void)rig.take_channel(0, 1);  // discard that probe traffic entirely
  // Now S1's first computation must still complete.
  ASSERT_TRUE(rig.c(1).initiate_for(t2).has_value());
  rig.deliver_all();
  ASSERT_FALSE(rig.declared().empty());
  EXPECT_EQ(rig.declared()[0].victim, t2);
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
}

TEST(ControllerProbe, StaleComputationSupersededByNewerFloor) {
  // Two initiations for the same target: receivers must keep only the
  // newer computation's state once its floor arrives.
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  const auto tag1 = rig.c(0).initiate_for(t1);
  const auto tag2 = rig.c(0).initiate_for(t1);
  ASSERT_TRUE(tag1 && tag2);
  EXPECT_LT(tag1->sequence, tag2->sequence);
  rig.deliver_all();
  // Both computations' probes circulate; at least the newer declares, and
  // every declaration is for the real victim.
  ASSERT_FALSE(rig.declared().empty());
  for (const auto& d : rig.declared()) EXPECT_EQ(d.victim, t1);
}

// ---- regression: grant reshuffle creates wait edges ---------------------------------

TEST(ControllerRegression, GrantReshuffleReArmsDetection) {
  // t3 holds rA; t1 and t2 queue behind it (t1 first).  When t3 finishes,
  // t1 is granted and t2 now waits on t1 -- a NEW edge created by the
  // grant.  With kOnBlock initiation the re-arm hook must fire probes for
  // t2 (visible as computations initiated after the release).
  DdbOptions o;
  o.initiation = DdbInitiation::kOnBlock;
  o.abort_victim = false;
  Rig rig(2, o);
  const TransactionId t3{3};
  const ResourceId rA = res_at(0, 0, 2);
  ASSERT_TRUE(rig.c(0).lock(t3, rA, LockMode::kWrite));
  rig.c(0).lock(t1, rA, LockMode::kWrite);
  rig.c(0).lock(t2, rA, LockMode::kWrite);
  const auto before = rig.c(0).stats().computations_initiated +
                      rig.c(0).stats().local_cycle_detections;
  rig.c(0).finish(t3);  // grants t1; t2 now waits on t1
  rig.deliver_all();
  const auto after = rig.c(0).stats().computations_initiated +
                     rig.c(0).stats().local_cycle_detections;
  EXPECT_GT(after, before);
}

// ---- local cycles and check_all -----------------------------------------------------

TEST(ControllerProbe, LocalCycleDeclaredWithoutMessages) {
  Rig rig(1);
  const ResourceId r0{0};
  const ResourceId r1 = res_at(0, 1, 1);
  ASSERT_TRUE(rig.c(0).lock(t1, r0, LockMode::kWrite));
  ASSERT_TRUE(rig.c(0).lock(t2, r1, LockMode::kWrite));
  rig.c(0).lock(t1, r1, LockMode::kWrite);
  rig.c(0).lock(t2, r0, LockMode::kWrite);
  EXPECT_EQ(rig.c(0).initiate_for(t1), std::nullopt);  // declared locally
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.c(0).stats().probes_sent, 0u);
  EXPECT_EQ(rig.c(0).stats().local_cycle_detections, 1u);
}

TEST(ControllerProbe, LocalSweepDeclaresLowestOfEachCycleOnce) {
  // Intra edges 1 -> 3 -> 2 -> 3: one local deadlock, {2, 3}, with t1
  // waiting on it from outside.  The sweep declares its lowest member once.
  Rig rig(1);
  const TransactionId t3{3};
  const ResourceId ra{0}, rb{1}, rc{2};
  ASSERT_TRUE(rig.c(0).lock(t3, ra, LockMode::kWrite));
  ASSERT_TRUE(rig.c(0).lock(t2, rb, LockMode::kWrite));
  ASSERT_TRUE(rig.c(0).lock(t3, rc, LockMode::kWrite));
  rig.c(0).lock(t1, ra, LockMode::kWrite);
  rig.c(0).lock(t3, rb, LockMode::kWrite);
  rig.c(0).lock(t2, rc, LockMode::kWrite);
  using Edge = std::pair<TransactionId, TransactionId>;
  ASSERT_EQ(rig.c(0).intra_edges(),
            (std::vector<Edge>{{t1, t3}, {t2, t3}, {t3, t2}}));

  EXPECT_EQ(rig.c(0).check_all(), 0u);
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].victim, t2);
  EXPECT_EQ(rig.c(0).stats().local_cycle_detections, 1u);
  EXPECT_EQ(rig.c(0).stats().probes_sent, 0u);
}

TEST(ControllerProbe, CheckAllQSetListsForwardedWaiters) {
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  // t2's forwarded request queues at S0: incoming black acquisition edge.
  const auto incoming = rig.c(0).incoming_black_processes();
  EXPECT_NE(std::find(incoming.begin(), incoming.end(), t2), incoming.end());
  // t1 holds remotely-acquired rB?  No: t1 only WAITS for rB.  But t1 is
  // blocked at S0 with a remote holding?  It has none granted yet, so only
  // t2 qualifies here.
  EXPECT_EQ(incoming.size(), 1u);
}

TEST(ControllerProbe, CheckAllDetectsCrossDeadlock) {
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  EXPECT_GT(rig.c(0).check_all(), 0u);
  rig.deliver_all();
  EXPECT_FALSE(rig.declared().empty());
}

TEST(ControllerProbe, RemoteHoldingFeedsQSet) {
  // t1 (home S0) holds rB@S1 and is blocked: its agent has an incoming
  // release-wait edge, so S0's Q set must include it.
  Rig rig(2);
  const ResourceId rB = res_at(1, 0, 2);
  const ResourceId rA = res_at(0, 0, 2);
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).lock(t2, rA, LockMode::kWrite));
  rig.c(0).lock(t1, rA, LockMode::kWrite);  // t1 blocked locally
  const auto incoming = rig.c(0).incoming_black_processes();
  EXPECT_NE(std::find(incoming.begin(), incoming.end(), t1), incoming.end());
}

// ---- misc ---------------------------------------------------------------------------

TEST(Controller, UndecodableFrameReported) {
  Rig rig(1);
  EXPECT_FALSE(rig.c(0).on_message(SiteId{0}, Bytes{0x77}).ok());
}

TEST(Controller, StatsAccumulate) {
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_all();
  const auto& s0 = rig.c(0).stats();
  const auto& s1 = rig.c(1).stats();
  EXPECT_GT(s0.probes_sent, 0u);
  EXPECT_GT(s1.probes_received, 0u);
  EXPECT_GT(s1.meaningful_probes, 0u);
  EXPECT_EQ(s0.deadlocks_declared, 1u);
  EXPECT_GT(s0.remote_requests_sent, 0u);
  EXPECT_GT(s1.remote_requests_received, 0u);
}

TEST(Controller, DeclaredVictimsAccessor) {
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_all();
  ASSERT_EQ(rig.c(0).declared_victims().size(), 1u);
  EXPECT_EQ(rig.c(0).declared_victims()[0].first, t1);
}

}  // namespace
}  // namespace cmh::ddb
