// Microbenchmarks (google-benchmark): hot-path costs of the building
// blocks -- message codecs, lock-manager operations, probe handling, and
// oracle cycle checks.  These are the per-operation costs behind the
// experiment tables.
#include <benchmark/benchmark.h>

#include "core/basic_process.h"
#include "core/messages.h"
#include "ddb/controller.h"
#include "ddb/lock_manager.h"
#include "graph/generators.h"
#include "graph/wait_for_graph.h"

namespace {

using namespace cmh;

void BM_EncodeProbe(benchmark::State& state) {
  const core::ProbeMsg msg{ProbeTag{ProcessId{7}, 123456}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode(msg));
  }
}
BENCHMARK(BM_EncodeProbe);

void BM_DecodeProbe(benchmark::State& state) {
  const core::SmallFrame frame =
      core::encode(core::ProbeMsg{ProbeTag{ProcessId{7}, 1}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode(frame.view()));
  }
}
BENCHMARK(BM_DecodeProbe);

void BM_EncodeWfgd(benchmark::State& state) {
  std::vector<graph::Edge> edges;
  for (std::uint32_t i = 0; i < state.range(0); ++i) {
    edges.push_back(graph::Edge{ProcessId{i}, ProcessId{i + 1}});
  }
  Bytes scratch;  // reused across iterations, as BasicProcess does
  for (auto _ : state) {
    core::encode_wfgd(edges, scratch);
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EncodeWfgd)->Range(1, 1 << 10)->Complexity(benchmark::oN);

void BM_ProbeHandling(benchmark::State& state) {
  // One meaningful-probe delivery at a non-initiator with an out edge.
  core::Options options;
  options.initiation = core::InitiationMode::kManual;
  std::uint64_t sink = 0;
  core::BasicProcess p(
      ProcessId{1},
      [&sink](ProcessId, BytesView b) { sink += b.size(); }, options);
  p.send_request(ProcessId{2});
  if (!p.on_message(ProcessId{0}, core::encode(core::RequestMsg{}).view())
           .ok()) {
    state.SkipWithError("request delivery failed");
    return;
  }
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const core::SmallFrame probe =
        core::encode(core::ProbeMsg{ProbeTag{ProcessId{0}, ++seq}});
    benchmark::DoNotOptimize(p.on_message(ProcessId{0}, probe.view()));
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ProbeHandling);

void BM_DdbProbeHandling(benchmark::State& state) {
  // The section-6 counterpart: one meaningful probe receipt at DDB
  // controller S0 of three, which labels {B, A, D} and forwards along A's
  // release-wait edge and D's acquisition edge.  D (home S0) holds r3 and
  // awaits r1 from S1; A holds r0 for (A, S1) and queues on r3; B queues
  // on r0 from S2.  Each probe is a fresh computation of initiator S2 whose
  // floor prunes the older ones, as in a long-lived controller.
  ddb::DdbOptions options;
  options.initiation = ddb::DdbInitiation::kManual;
  options.abort_victim = false;
  std::uint64_t sink = 0;
  ddb::Controller c(
      SiteId{0}, 3, [&sink](SiteId, BytesView b) { sink += b.size(); },
      [](ResourceId r) { return SiteId{r.value() % 3}; }, options, TimerFn{});
  const TransactionId a{1}, b{2}, d{4};
  const auto request = [&](SiteId from, TransactionId t, ResourceId r) {
    return c.on_message(
        from,
        ddb::encode(ddb::RemoteLockRequestMsg{t, r, ddb::LockMode::kWrite})
            .view());
  };
  (void)c.lock(d, ResourceId{3}, ddb::LockMode::kWrite);
  (void)c.lock(d, ResourceId{1}, ddb::LockMode::kWrite);
  if (!request(SiteId{1}, a, ResourceId{0}).ok() ||
      !request(SiteId{1}, a, ResourceId{3}).ok() ||
      !request(SiteId{2}, b, ResourceId{0}).ok()) {
    state.SkipWithError("lock request delivery failed");
    return;
  }
  const ddb::InterEdge entry{AgentId{b, SiteId{2}}, AgentId{b, SiteId{0}}};
  std::uint64_t seq = 0;
  for (auto _ : state) {
    ++seq;
    const ddb::DdbFrame probe = ddb::encode(ddb::DdbProbeMsg{
        ddb::DdbProbeTag{SiteId{2}, seq}, seq > 4 ? seq - 4 : 1, entry,
        false});
    benchmark::DoNotOptimize(c.on_message(SiteId{2}, probe.view()));
  }
  if (c.stats().meaningful_probes != seq ||
      c.stats().probes_sent != 2 * seq) {
    state.SkipWithError("probes were not meaningful or not forwarded");
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_DdbProbeHandling);

void BM_LockAcquireRelease(benchmark::State& state) {
  ddb::LockManager lm;
  const ddb::LockMode mode = ddb::LockMode::kWrite;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lm.acquire(ResourceId{1}, TransactionId{1}, mode, SiteId{0}));
    benchmark::DoNotOptimize(lm.release(ResourceId{1}, TransactionId{1}));
  }
}
BENCHMARK(BM_LockAcquireRelease);

void BM_LockContendedQueue(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ddb::LockManager lm;
    (void)lm.acquire(ResourceId{1}, TransactionId{0}, ddb::LockMode::kWrite,
                     SiteId{0});
    state.ResumeTiming();
    for (std::uint32_t t = 1; t <= state.range(0); ++t) {
      benchmark::DoNotOptimize(lm.acquire(ResourceId{1}, TransactionId{t},
                                          ddb::LockMode::kWrite, SiteId{0}));
    }
    benchmark::DoNotOptimize(lm.wait_edges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LockContendedQueue)->Range(4, 256)->Complexity();

void BM_OracleDarkCycle(benchmark::State& state) {
  const auto scenario = graph::make_ring_with_tails(
      static_cast<std::uint32_t>(state.range(0)),
      static_cast<std::uint32_t>(state.range(0)) / 4,
      static_cast<std::uint32_t>(state.range(0)) / 2, 7);
  const graph::WaitForGraph g =
      graph::replay(scenario, scenario.script.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.on_dark_cycle(ProcessId{0}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OracleDarkCycle)->Range(16, 1024)->Complexity();

}  // namespace

BENCHMARK_MAIN();
