// Microbenchmarks (google-benchmark): hot-path costs of the building
// blocks -- message codecs, lock-manager operations, probe handling, and
// oracle cycle checks.  These are the per-operation costs behind the
// experiment tables.
#include <benchmark/benchmark.h>

#include "core/basic_process.h"
#include "core/messages.h"
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
