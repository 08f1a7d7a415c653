// SimCluster harness: oracle bookkeeping matches the model's instants, and
// the hooks/callbacks fire correctly.
#include "runtime/sim_cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "runtime/workload.h"

namespace cmh::runtime {
namespace {

core::Options manual_opts() {
  core::Options o;
  o.initiation = core::InitiationMode::kManual;
  return o;
}

const ProcessId p0{0};
const ProcessId p1{1};
const ProcessId p2{2};

TEST(SimClusterOracle, EdgeColorsFollowMessageLifecycle) {
  SimCluster cluster(2, manual_opts(), 1);
  cluster.request(p0, p1);
  // Sent but not delivered: grey (G1).
  EXPECT_EQ(cluster.oracle().color(p0, p1), graph::EdgeColor::kGrey);
  cluster.run();
  // Delivered: black (G2).
  EXPECT_EQ(cluster.oracle().color(p0, p1), graph::EdgeColor::kBlack);
  cluster.reply(p1, p0);
  // Reply sent, not delivered: white (G3).
  EXPECT_EQ(cluster.oracle().color(p0, p1), graph::EdgeColor::kWhite);
  cluster.run();
  // Delivered: gone (G4).
  EXPECT_FALSE(cluster.oracle().has_edge(p0, p1));
}

TEST(SimClusterOracle, ProcessViewMatchesOracleAtQuiescence) {
  SimCluster cluster(3, manual_opts(), 2);
  cluster.request(p0, p1);
  cluster.request(p0, p2);
  cluster.request(p1, p2);
  cluster.run();
  for (std::uint32_t i = 0; i < 3; ++i) {
    const ProcessId p{i};
    const auto& proc = cluster.process(p);
    // Local out edges == oracle successors.
    const auto succ = cluster.oracle().successors(p);
    const auto& waits = proc.waits_for();
    EXPECT_EQ(std::set<ProcessId>(succ.begin(), succ.end()),
              std::set<ProcessId>(waits.begin(), waits.end()));
    // Local black in edges == oracle black predecessors.
    const auto preds =
        cluster.oracle().predecessors(p, graph::EdgeColor::kBlack);
    const auto& held = proc.held_requests();
    EXPECT_EQ(std::set<ProcessId>(preds.begin(), preds.end()),
              std::set<ProcessId>(held.begin(), held.end()));
  }
}

TEST(SimClusterOracle, ReplyByBlockedProcessRejected) {
  SimCluster cluster(3, manual_opts(), 3);
  cluster.request(p0, p1);
  cluster.run();
  cluster.request(p1, p2);  // p1 now blocked
  EXPECT_THROW(cluster.reply(p1, p0), std::logic_error);
}

TEST(SimClusterHooks, DeliveryHooksSeeEveryMessage) {
  SimCluster cluster(2, manual_opts(), 4);
  int requests = 0;
  int replies = 0;
  cluster.add_delivery_hook(
      [&](ProcessId, ProcessId, const core::Message& m) {
        if (std::holds_alternative<core::RequestMsg>(m)) ++requests;
        if (std::holds_alternative<core::ReplyMsg>(m)) ++replies;
      });
  cluster.request(p0, p1);
  cluster.run();
  cluster.reply(p1, p0);
  cluster.run();
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(replies, 1);
}

TEST(SimClusterHooks, MultipleHooksAllFire) {
  SimCluster cluster(2, manual_opts(), 5);
  int a = 0;
  int b = 0;
  cluster.add_delivery_hook(
      [&](ProcessId, ProcessId, const core::Message&) { ++a; });
  cluster.add_delivery_hook(
      [&](ProcessId, ProcessId, const core::Message&) { ++b; });
  cluster.request(p0, p1);
  cluster.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(SimClusterDetection, CallbackSeesOracleAtDeclarationInstant) {
  SimCluster cluster(2, core::Options{}, 6);
  bool checked = false;
  cluster.set_detection_callback([&](const DeadlockEvent& e) {
    checked = true;
    EXPECT_TRUE(cluster.oracle().on_dark_cycle(e.process));
    EXPECT_EQ(e.at, cluster.simulator().now());
  });
  cluster.request(p0, p1);
  cluster.request(p1, p0);
  cluster.run();
  EXPECT_TRUE(checked);
}

TEST(SimClusterDetection, RunUntilDetectionStopsEarly) {
  SimCluster cluster(2, core::Options{}, 7);
  cluster.request(p0, p1);
  cluster.request(p1, p0);
  ASSERT_TRUE(cluster.run_until_detection());
  EXPECT_EQ(cluster.detections().size(), 1u);
  // More events may remain (e.g. WFGD); run drains them.
  cluster.run();
  EXPECT_TRUE(cluster.simulator().idle());
}

TEST(SimClusterStats, TotalsAggregateAcrossProcesses) {
  SimCluster cluster(3, core::Options{}, 8);
  cluster.request(p0, p1);
  cluster.request(p1, p2);
  cluster.request(p2, p0);
  cluster.run();
  const auto total = cluster.total_stats();
  EXPECT_EQ(total.requests_sent, 3u);
  EXPECT_GT(total.probes_sent, 0u);
  // Every ring member initiated on-request; concurrent computations may
  // each succeed (the paper allows several initiators, section 3.2).
  EXPECT_GE(total.deadlocks_declared, 1u);
  EXPECT_LE(total.deadlocks_declared, 3u);
}

// ---- large-N sharded waves -----------------------------------------------------------

/// 4,096 processes as 256 disjoint 16-rings on K shards, oracle and auditor
/// off (the sharded perf configuration).  Three seeded waves each start two
/// computations per ring, so processes see several initiators and the
/// first wave's declarations also run the section-5 WFGD traffic.  Folds
/// the declarations (sorted, since shard workers append concurrently), the
/// process counters and the simulator counters into one FNV-1a hash.
std::uint64_t large_ring_waves_hash(std::uint32_t shards) {
  constexpr std::uint32_t kProcs = 4096;
  constexpr std::uint32_t kRingLen = 16;
  constexpr std::uint32_t kRings = kProcs / kRingLen;
  core::Options options = manual_opts();
  SimCluster cluster(kProcs, options,
                     SimClusterConfig{.seed = 77,
                                      .shards = shards,
                                      .track_oracle = false,
                                      .audit = false});
  issue_scenario(cluster, graph::make_disjoint_rings(kProcs, kRingLen));
  cluster.run();
  Rng rng(2024);
  for (int wave = 0; wave < 3; ++wave) {
    for (std::uint32_t r = 0; r < kRings; ++r) {
      for (int k = 0; k < 2; ++k) {
        const auto member = static_cast<std::uint32_t>(rng.below(kRingLen));
        cluster.process(ProcessId{r * kRingLen + member}).initiate();
      }
    }
    cluster.run();
  }

  std::vector<DeadlockEvent> events = cluster.detections();
  // Every ring declares at least once per wave.
  EXPECT_GE(events.size(), 3u * kRings);
  std::sort(events.begin(), events.end(),
            [](const DeadlockEvent& a, const DeadlockEvent& b) {
              return std::tie(a.at, a.process, a.tag) <
                     std::tie(b.at, b.process, b.tag);
            });
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const DeadlockEvent& e : events) {
    mix(static_cast<std::uint64_t>(e.at.micros));
    mix(e.process.value());
    mix(e.tag.initiator.value());
    mix(e.tag.sequence);
  }
  const core::ProcessStats t = cluster.total_stats();
  for (const std::uint64_t v :
       {t.requests_sent, t.replies_sent, t.probes_sent, t.probes_received,
        t.meaningful_probes, t.computations_initiated, t.deadlocks_declared,
        t.wfgd_messages_sent, t.wfgd_messages_received}) {
    mix(v);
  }
  const sim::SimStats s = cluster.simulator().stats();
  for (const std::uint64_t v :
       {s.messages_sent, s.messages_delivered, s.bytes_sent, s.timers_fired,
        s.events_processed}) {
    mix(v);
  }
  return h;
}

TEST(SimClusterSharded, LargeRingWavesHashIsPinned) {
  // Equal for every shard count; re-record only for a deliberate schedule
  // change.
  for (const std::uint32_t k : {1u, 2u, 4u}) {
    EXPECT_EQ(large_ring_waves_hash(k), 0xa0cb6bf2bb190ac8ULL) << "shards=" << k;
  }
}

// ---- workload driver -----------------------------------------------------------------

TEST(RandomWorkloadTest, OrderedRequestsNeverDeadlock) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SimCluster cluster(12, manual_opts(), seed);
    WorkloadConfig wl;
    wl.ordered_requests = true;
    wl.issue_until = SimTime::ms(30);
    RandomWorkload workload(cluster, wl, seed);
    workload.start();
    cluster.run();
    EXPECT_FALSE(workload.first_deadlock_at().has_value()) << seed;
    EXPECT_TRUE(cluster.oracle().deadlocked_vertices().empty()) << seed;
    // Everything unwinds: no process left blocked.
    for (std::uint32_t i = 0; i < 12; ++i) {
      EXPECT_FALSE(cluster.process(ProcessId{i}).blocked()) << i;
    }
  }
}

TEST(RandomWorkloadTest, FirstDeadlockTimestampIsExact) {
  SimCluster cluster(8, manual_opts(), 42);
  WorkloadConfig wl;
  wl.mean_interarrival = SimTime::us(100);
  wl.issue_until = SimTime::ms(50);
  RandomWorkload workload(cluster, wl, 43);
  workload.start();
  cluster.run();
  if (workload.first_deadlock_at()) {
    // If the workload says a cycle formed, it must still exist (permanence).
    EXPECT_FALSE(cluster.oracle().deadlocked_vertices().empty());
  } else {
    EXPECT_TRUE(cluster.oracle().deadlocked_vertices().empty());
  }
}

TEST(RandomWorkloadTest, RequestsIssuedCounted) {
  SimCluster cluster(8, manual_opts(), 9);
  WorkloadConfig wl;
  wl.issue_until = SimTime::ms(10);
  RandomWorkload workload(cluster, wl, 10);
  workload.start();
  cluster.run();
  EXPECT_EQ(workload.requests_issued(), cluster.total_stats().requests_sent);
}

TEST(IssueScenario, RejectsScriptsWithReplies) {
  SimCluster cluster(4, manual_opts(), 11);
  graph::Scenario s = graph::make_ring(4, 4);
  s.script.push_back(
      {graph::OpKind::kWhiten, graph::Edge{ProcessId{0}, ProcessId{1}}});
  EXPECT_THROW(issue_scenario(cluster, s), std::invalid_argument);
}

}  // namespace
}  // namespace cmh::runtime
