// sim_wave: 65,536 BasicProcesses tiled as 4,096 disjoint 16-rings on the
// sharded simulator (oracle and auditor off).  Every ring has one seeded
// initiator per wave; a run repeats fresh waves on one wedged cluster.  The
// work is the sim engine plus the core probe handler -- no net, runtime or
// ddb cost -- and the parallel engine's scaling shows here.
//
// End-to-end: ops = ring detections; op latency = wall time from the wave's
// start to a ring's declaration; detect latency = wall time from the ring's
// own initiate() call to its declaration (16 probe hops); msgs_per_op = sim
// messages per detection.  Latencies are per-wave percentiles, medianed
// over the run's waves.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "runtime/sim_cluster.h"
#include "runtime/workload.h"

namespace cmh::perfbench {
namespace {

constexpr std::uint32_t kProcs = 65536;
constexpr std::uint32_t kRingLen = 16;
constexpr std::uint32_t kRings = kProcs / kRingLen;
constexpr int kSetups = 5;

// Per-shard accumulators: shard workers only ever touch their own slot.
struct alignas(64) ShardSlot {
  TimeAcc handler;
  std::vector<double> wave_us;
  std::vector<double> ring_us;
};

struct Wave {
  std::unique_ptr<runtime::SimCluster> cluster;
  std::vector<ShardSlot> slots;
  std::vector<std::uint32_t> initiator;    // chosen member per ring
  std::vector<std::uint32_t> declared;     // declarations per ring this wave
  std::vector<std::uint32_t> wrong;        // declarations by a non-initiator
  std::vector<std::int64_t> initiated_ns;  // per ring, this wave
  std::int64_t start_ns{0};
  std::int64_t busy_ns{0};                 // wall time inside run()
};

std::uint32_t shard_count() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
}

std::unique_ptr<runtime::SimCluster> build(const Args& args, Wave& w) {
  core::Options options;
  options.initiation = core::InitiationMode::kManual;
  auto cluster = std::make_unique<runtime::SimCluster>(
      kProcs, options,
      runtime::SimClusterConfig{.seed = args.seed,
                                .shards = shard_count(),
                                .track_oracle = false,
                                .audit = false});
  runtime::issue_scenario(*cluster,
                          graph::make_disjoint_rings(kProcs, kRingLen));
  cluster->run();  // wedge: every request delivered, every process blocked
  cluster->set_detection_callback([&w](const runtime::DeadlockEvent& ev) {
    const std::uint32_t p = ev.process.value();
    const std::uint32_t ring = p / kRingLen;
    ShardSlot& slot = w.slots[w.cluster->simulator().shard_of(p)];
    const std::int64_t t = now_ns();
    slot.wave_us.push_back(static_cast<double>(t - w.start_ns) / 1e3);
    slot.ring_us.push_back(static_cast<double>(t - w.initiated_ns[ring]) / 1e3);
    ++w.declared[ring];
    if (p != w.initiator[ring]) ++w.wrong[ring];
  });
  return cluster;
}

/// Starts one computation per ring (seeded member) and runs to quiescence.
/// Returns the wall time of the wave in seconds.
double run_wave(Wave& w, Rng& rng) {
  for (std::uint32_t r = 0; r < kRings; ++r) {
    w.initiator[r] =
        r * kRingLen + static_cast<std::uint32_t>(rng.below(kRingLen));
  }
  std::fill(w.declared.begin(), w.declared.end(), 0);
  std::fill(w.wrong.begin(), w.wrong.end(), 0);
  for (ShardSlot& s : w.slots) {
    s.wave_us.clear();
    s.ring_us.clear();
  }
  w.start_ns = now_ns();
  for (std::uint32_t r = 0; r < kRings; ++r) {
    w.initiated_ns[r] = now_ns();
    w.cluster->process(ProcessId{w.initiator[r]}).initiate();
  }
  const std::int64_t run_start = now_ns();
  w.cluster->run();
  const std::int64_t end = now_ns();
  w.busy_ns += end - run_start;
  return static_cast<double>(end - w.start_ns) / 1e9;
}

/// Re-registers every node's handler as a timing wrapper around the
/// process's on_message -- the same call the cluster's oracle-free
/// delivery path makes.
void wrap_handlers(Wave& w) {
  runtime::SimCluster& c = *w.cluster;
  sim::Simulator& sim = c.simulator();
  for (std::uint32_t i = 0; i < kProcs; ++i) {
    core::BasicProcess* proc = &c.process(ProcessId{i});
    TimeAcc* acc = &w.slots[sim.shard_of(i)].handler;
    sim.set_handler(i, [proc, acc](sim::NodeId from, const Bytes& payload) {
      const std::int64_t t0 = now_ns();
      const auto st = proc->on_message(ProcessId{from}, payload);
      acc->add(now_ns() - t0);
      if (!st.ok()) throw std::logic_error("on_message: " + st.to_string());
    });
  }
}

}  // namespace

Report run_sim_wave(const Args& args, double seconds, bool traced) {
  Report rep;
  Wave w;
  w.slots = std::vector<ShardSlot>(shard_count());
  w.initiator.assign(kRings, 0);
  w.declared.assign(kRings, 0);
  w.wrong.assign(kRings, 0);
  w.initiated_ns.assign(kRings, 0);
  Rng rng(args.seed);

  // Set-up: build, wedge and run one warm-up wave (it also carries the
  // one-off section-5 WFGD traffic).  Repeated; the last cluster is kept.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    w.cluster.reset();
    release_freed_memory();
    w.cluster = build(args, w);
    run_wave(w, rng);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  if (traced) wrap_handlers(w);
  const double threads = thread_count();
  const double rss_mb = peak_rss_mb();

  sim::Simulator& sim = w.cluster->simulator();
  sim.reset_stats();
  w.busy_ns = 0;
  const core::ProcessStats before = w.cluster->total_stats();
  std::vector<double> rate, p50, p90, d50, d90;
  const double cpu0 = cpu_seconds();
  std::uint64_t detections = 0;
  const std::int64_t deadline = deadline_after(seconds);
  do {
    const double wall = run_wave(w, rng);
    std::vector<double> wave_us, ring_us;
    for (const ShardSlot& s : w.slots) {
      wave_us.insert(wave_us.end(), s.wave_us.begin(), s.wave_us.end());
      ring_us.insert(ring_us.end(), s.ring_us.begin(), s.ring_us.end());
    }
    std::uint32_t missed = 0, extra = 0, wrong = 0;
    for (std::uint32_t r = 0; r < kRings; ++r) {
      if (w.declared[r] == 0) ++missed;
      if (w.declared[r] > 1) ++extra;
      wrong += w.wrong[r];
    }
    rep.attempted += kRings;
    rep.failed += missed + wrong;
    if (missed + extra + wrong > 0) {
      rep.fail("wave: " + std::to_string(missed) + " rings undeclared, " +
               std::to_string(extra) + " declared twice, " +
               std::to_string(wrong) + " declarations off the initiator");
    }
    detections += wave_us.size();
    rate.push_back(ratio(wave_us.size(), wall));
    p50.push_back(percentile(wave_us, 0.5));
    p90.push_back(percentile(wave_us, 0.9));
    d50.push_back(percentile(ring_us, 0.5));
    d90.push_back(percentile(ring_us, 0.9));
  } while (now_ns() < deadline);
  const double cpu_s = cpu_seconds() - cpu0;
  const sim::SimStats& st = sim.stats();
  report_core(rep, before, w.cluster->total_stats(), kRingLen);

  rep.e2e["setup_s"] = median(setups);
  rep.e2e["peak_rss_mb"] = rss_mb;
  rep.e2e["ops_per_s"] = median(rate);
  rep.e2e["cpu_us_per_op"] = ratio(cpu_s * 1e6, detections);
  rep.e2e["op_p50_us"] = median(p50);
  rep.e2e["detect_p50_us"] = median(d50);
  rep.e2e["msgs_per_op"] = ratio(st.messages_sent, detections);
  rep.layer["tail.op_p90_us"] = median(p90);
  rep.layer["tail.detect_p90_us"] = median(d90);
  rep.cost = ratio(1, rep.e2e["ops_per_s"]);
  rep.notes.emplace_back("waves", static_cast<double>(rate.size()));
  rep.notes.emplace_back("shards", shard_count());

  TimeAcc handler;
  for (const ShardSlot& s : w.slots) handler.merge(s.handler);
  const double busy_ns = static_cast<double>(w.busy_ns);
  rep.layer["sim.events"] = static_cast<double>(st.events_processed);
  rep.layer["sim.timers_fired"] = static_cast<double>(st.timers_fired);
  rep.layer["sim.messages"] = static_cast<double>(st.messages_sent);
  rep.layer["sim.busy_s"] = busy_ns / 1e9;
  rep.layer["sim.ns_per_event"] = ratio(busy_ns, st.events_processed);
  if (traced) {
    rep.layer["sim.handler_share"] =
        ratio(handler.ns, busy_ns * shard_count());
    rep.layer["core.on_message_ns"] = handler.mean_ns();
  }
  rep.layer["runtime.threads"] = threads;
  return rep;
}

}  // namespace cmh::perfbench
