// Allocation accounting for the steady-state hot paths.  The contract: once
// warmed up, probe encode/handle/forward at a process, WFGD encoding into a
// reused scratch buffer and message traffic through the simulator perform
// ZERO heap allocations.
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
