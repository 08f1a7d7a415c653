// Allocation accounting for the steady-state hot paths.  The contract: once
// warmed up, probe encode/handle/forward at a process and at a DDB
// controller, WFGD encoding into a reused scratch buffer and message traffic
// through the simulator perform ZERO heap allocations.
// A counting global operator new makes that an assertable property instead
// of a benchmark anecdote.  (The override is binary-wide but only counts;
// it delegates to malloc/free.)
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "core/basic_process.h"
#include "core/messages.h"
#include "ddb/controller.h"
#include "sim/simulator.h"

namespace {
// Not atomic: every test in this binary is single-threaded, and the net
// transports are not exercised here.
std::size_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cmh::core {
namespace {

TEST(ZeroAlloc, SteadyStateProbeEncodeHandleForward) {
  Options options;
  options.initiation = InitiationMode::kManual;
  std::uint64_t sink = 0;
  BasicProcess p(
      ProcessId{1}, [&sink](ProcessId, BytesView b) { sink += b.size(); },
      options);
  p.send_request(ProcessId{2});  // outgoing edge: probes will forward
  ASSERT_TRUE(
      p.on_message(ProcessId{0}, encode(RequestMsg{}).view()).ok());

  // Warm-up: first probe of an initiator creates its computation record.
  std::uint64_t seq = 0;
  for (int i = 0; i < 16; ++i) {
    const SmallFrame probe =
        encode(ProbeMsg{ProbeTag{ProcessId{0}, ++seq}});
    ASSERT_TRUE(p.on_message(ProcessId{0}, probe.view()).ok());
  }

  // Measured phase: every probe is meaningful, starts a fresh computation
  // sequence, and forwards along the outgoing edge -- the full detection
  // hot path.  (No gtest macros inside: their success paths may allocate.)
  const std::size_t before = g_alloc_count;
  bool all_ok = true;
  for (int i = 0; i < 10000; ++i) {
    const SmallFrame probe =
        encode(ProbeMsg{ProbeTag{ProcessId{0}, ++seq}});
    all_ok &= p.on_message(ProcessId{0}, probe.view()).ok();
  }
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(p.stats().probes_received, 10016u);
  EXPECT_GT(sink, 0u);
}

TEST(ZeroAlloc, SteadyStateProbesFromManyInitiators) {
  // Sixteen distinct initiators, first seen out of key order: the
  // per-initiator computation records must all be in place after warm-up,
  // and later probes of any of them must only update those records.
  Options options;
  options.initiation = InitiationMode::kManual;
  std::uint64_t sink = 0;
  BasicProcess p(
      ProcessId{1}, [&sink](ProcessId, BytesView b) { sink += b.size(); },
      options);
  p.send_request(ProcessId{2});
  ASSERT_TRUE(
      p.on_message(ProcessId{0}, encode(RequestMsg{}).view()).ok());

  constexpr std::uint32_t kInitiators = 16;
  const auto initiator = [](std::uint64_t i) {
    return ProcessId{100 + static_cast<std::uint32_t>((i * 7) % kInitiators)};
  };
  std::uint64_t seq = 0;
  for (std::uint32_t i = 0; i < 4 * kInitiators; ++i) {
    const SmallFrame probe = encode(ProbeMsg{ProbeTag{initiator(i), ++seq}});
    ASSERT_TRUE(p.on_message(ProcessId{0}, probe.view()).ok());
  }

  const std::size_t before = g_alloc_count;
  bool all_ok = true;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    const SmallFrame probe = encode(ProbeMsg{ProbeTag{initiator(i), ++seq}});
    all_ok &= p.on_message(ProcessId{0}, probe.view()).ok();
  }
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(p.stats().probes_sent, 10000u + 4 * kInitiators);
  EXPECT_GT(sink, 0u);
}

TEST(ZeroAlloc, SteadyStateWfgdEncodeIntoScratch) {
  // Section-5 edge sets of every size up to 64 edges, encoded into one
  // scratch buffer that has already held the largest of them.
  std::vector<graph::Edge> edges;
  for (std::uint32_t i = 0; i < 64; ++i) {
    edges.push_back(graph::Edge{ProcessId{i}, ProcessId{i + 1}});
  }
  Bytes scratch;
  encode_wfgd(edges, scratch);

  const std::size_t before = g_alloc_count;
  std::size_t encoded = 0;
  for (std::size_t i = 0; i < 10000; ++i) {
    encode_wfgd(std::span(edges).first(1 + i % edges.size()), scratch);
    encoded += scratch.size();
  }
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(scratch.size(), 5u + 8u * (1 + 9999 % edges.size()));
  EXPECT_GT(encoded, 0u);
}

TEST(ZeroAlloc, SteadyStateSimulatorTraffic) {
  sim::Simulator sim(7, sim::DelayModel::fixed(SimTime::us(10)));
  int remaining = 4000;
  const sim::NodeId a = sim.add_node({});
  const sim::NodeId b = sim.add_node({});
  const auto forward = [&sim, &remaining, a, b](sim::NodeId from,
                                                const Bytes& payload) {
    if (remaining-- > 0) sim.send(from == a ? b : a, from, payload);
  };
  sim.set_handler(a, forward);
  sim.set_handler(b, forward);
  const SmallFrame probe = encode(ProbeMsg{ProbeTag{ProcessId{0}, 1}});
  sim.send(a, b, probe.view());

  // Warm-up: slab, queue, channel matrix and buffer pool reach capacity.
  (void)sim.run_batch(1000);

  // Measured phase: pure pooled recycling -- pop, deliver, re-send.
  const std::size_t before = g_alloc_count;
  const std::size_t processed = sim.run_batch(2000);
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_EQ(processed, 2000u);
  EXPECT_EQ(allocations, 0u);
  EXPECT_GE(sim.stats().messages_delivered, 3000u);
}

TEST(ZeroAlloc, SteadyStateSimulatorTrafficBeyond1024Nodes) {
  // 1,100 nodes, 64 tokens in flight; each node alternates between two
  // successors, so every node keeps two outgoing channels live.  Once every
  // channel exists, traffic must recycle channel, slab and buffer state only.
  constexpr std::uint32_t kNodes = 1100;
  sim::Simulator sim(11, sim::DelayModel::uniform(SimTime::us(5), SimTime::us(80)));
  std::vector<std::uint32_t> hops(kNodes, 0);
  for (std::uint32_t i = 0; i < kNodes; ++i) sim.add_node({});
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    sim.set_handler(i, [&sim, &hops, i](sim::NodeId, const Bytes& payload) {
      const std::uint32_t step = 1 + (hops[i]++ % 2);
      sim.send(i, (i + step) % kNodes, payload);
    });
  }
  const SmallFrame probe = encode(ProbeMsg{ProbeTag{ProcessId{0}, 1}});
  for (std::uint32_t t = 0; t < 64; ++t) {
    sim.send(t * (kNodes / 64), t * (kNodes / 64) + 1, probe.view());
  }

  // Warm-up: enough hops for every node to have used both successors.
  (void)sim.run_batch(200000);
  bool warm = true;
  for (const std::uint32_t h : hops) warm &= h >= 2;
  ASSERT_TRUE(warm);

  const std::size_t before = g_alloc_count;
  const std::size_t processed = sim.run_batch(20000);
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_EQ(processed, 20000u);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace cmh::core

namespace cmh::ddb {
namespace {

TEST(ZeroAlloc, DdbProbeReceiveForwardDeclare) {
  // Controller S0 of three.  Resource r lives at site r % 3.
  //   D (home S0) holds r3 and awaits a grant for r1 from S1;
  //   A (home S1) holds r0 on behalf of (A, S1) and queues on r3 behind D;
  //   B (home S2) queues on r0 behind A.
  // A probe entering (B, S0) from S2 reaches {B, A, D} and forwards twice:
  // along A's release-wait edge and along D's acquisition edge, both to S1.
  DdbOptions options;
  options.initiation = DdbInitiation::kManual;
  options.abort_victim = false;
  std::uint64_t sink = 0;
  std::size_t declarations = 0;
  Controller c(
      SiteId{0}, 3, [&sink](SiteId, BytesView b) { sink += b.size(); },
      [](ResourceId r) { return SiteId{r.value() % 3}; }, options, TimerFn{});
  c.set_deadlock_callback(
      [&declarations](TransactionId, const DdbProbeTag&) { ++declarations; });
  const TransactionId a{1}, b{2}, d{4};
  const auto request = [&](SiteId from, TransactionId t, ResourceId r) {
    return c.on_message(
        from, encode(RemoteLockRequestMsg{t, r, LockMode::kWrite}).view());
  };
  ASSERT_TRUE(c.lock(d, ResourceId{3}, LockMode::kWrite));
  ASSERT_FALSE(c.lock(d, ResourceId{1}, LockMode::kWrite));
  ASSERT_TRUE(request(SiteId{1}, a, ResourceId{0}).ok());
  ASSERT_TRUE(request(SiteId{1}, a, ResourceId{3}).ok());
  ASSERT_TRUE(request(SiteId{2}, b, ResourceId{0}).ok());
  ASSERT_TRUE(c.locks().holds(ResourceId{0}, a));
  ASSERT_TRUE(c.blocked(a) && c.blocked(b) && c.blocked(d));

  // One round: kProbes meaningful probes of S2's computations, each with a
  // fresh sequence and a floor that prunes older ones, then one own
  // computation for B that a returning probe declares.
  constexpr std::uint64_t kProbes = 8;
  std::uint64_t foreign = 0;
  const InterEdge entry{AgentId{b, SiteId{2}}, AgentId{b, SiteId{0}}};
  const auto round = [&] {
    bool ok = true;
    for (std::uint64_t i = 0; i < kProbes; ++i) {
      ++foreign;
      const DdbProbeTag tag{SiteId{2}, foreign};
      const std::uint64_t floor = foreign > 4 ? foreign - 4 : 1;
      ok &= c.on_message(SiteId{2},
                         encode(DdbProbeMsg{tag, floor, entry, false}).view())
                .ok();
    }
    const std::optional<DdbProbeTag> own = c.initiate_for(b);
    if (!own) return false;
    return ok && c.on_message(SiteId{2},
                              encode(DdbProbeMsg{*own, own->sequence, entry,
                                                 false})
                                  .view())
                     .ok();
  };

  // Warm-up: computation vectors, scratch and the declaration log reach
  // their working-set capacity.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(round());
  constexpr std::size_t kRounds = 20;
  ASSERT_GE(c.declared_victims().capacity() - c.declared_victims().size(),
            kRounds);
  const ControllerStats warm = c.stats();

  // Measured phase.  (No gtest macros inside: their success paths may
  // allocate.)
  const std::size_t before = g_alloc_count;
  bool all_ok = true;
  for (std::size_t i = 0; i < kRounds; ++i) all_ok &= round();
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u);
  // Every probe was meaningful; each of S2's forwarded along both edges,
  // each own computation sent its two probes and was declared.
  EXPECT_EQ(c.stats().meaningful_probes - warm.meaningful_probes,
            kRounds * (kProbes + 1));
  EXPECT_EQ(c.stats().probes_sent - warm.probes_sent,
            kRounds * (2 * kProbes + 2));
  EXPECT_EQ(declarations, 100u + kRounds);
  EXPECT_GT(sink, 0u);
}

}  // namespace
}  // namespace cmh::ddb
