// DDB golden trace: a fixed seed must drive the section-6 controllers through
// a bit-identical message schedule forever.  The scenario is a long-lived
// 8-site cluster with delayed initiation (T = 2 ms) and victim abort, running
// several rounds of 300 concurrent scripted transactions on a 256-resource
// hot set -- enough contention to exercise lock queues, read->write
// upgrades, multi-site probe computations, floor pruning, declarations,
// aborts and purges.  Every delivery (from, to, virtual time, payload bytes)
// and every declaration is folded into one FNV-1a hash.
//
// The pin exists so that refactors of the controller and lock manager can
// prove they changed nothing observable: a data-structure change must leave
// the hash and the counts exactly as they are.
#include <gtest/gtest.h>

#include "ddb/cluster.h"
#include "ddb/workload.h"
#include "sim/simulator.h"

namespace cmh::ddb {
namespace {

class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ULL;  // FNV-1a prime
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{1469598103934665603ULL};  // FNV-1a offset basis
};

class DeliveryHasher final : public sim::SimObserver {
 public:
  explicit DeliveryHasher(Fnv1a& h) : h_(h) {}
  void on_send(sim::NodeId, sim::NodeId, BytesView, SimTime) override {}
  void on_deliver(sim::NodeId from, sim::NodeId to, BytesView payload,
                  SimTime at) override {
    h_.mix(from);
    h_.mix(to);
    h_.mix(static_cast<std::uint64_t>(at.micros));
    h_.mix(payload.size());
    for (const std::uint8_t b : payload) h_.mix(b);
  }

 private:
  Fnv1a& h_;
};

struct GoldenResult {
  std::uint64_t hash{0};
  std::uint64_t messages{0};
  std::uint64_t probes{0};
  std::uint64_t declarations{0};
  std::uint64_t committed{0};
  std::uint64_t given_up{0};
  std::size_t deadlocked_at_idle{0};
};

GoldenResult run_golden_ddb() {
  constexpr std::uint32_t kRounds = 3;
  constexpr std::uint32_t kTxnsPerRound = 300;
  Cluster db(ClusterConfig{
      .n_sites = 8,
      .n_resources = 256,
      .options = DdbOptions{.initiation = DdbInitiation::kDelayed,
                            .initiation_delay = SimTime::ms(2),
                            .q_optimization = true,
                            .abort_victim = true},
      .seed = 0xDDB5EEDULL,
      .delays = {}});
  Fnv1a h;
  DeliveryHasher hasher(h);
  db.simulator().set_observer(&hasher);
  db.set_detection_listener([&h](const DdbDetection& d) {
    h.mix(d.victim.value());
    h.mix(d.tag.initiator.value());
    h.mix(d.tag.sequence);
    h.mix(d.site.value());
    h.mix(static_cast<std::uint64_t>(d.at.micros));
  });

  TxnScriptConfig script;
  script.locks_per_txn = 3;
  script.write_fraction = 0.5;
  script.hold_time = SimTime::ms(2);
  script.retry_backoff = SimTime::ms(1);
  script.max_retries = 100;
  script.hot_set = 256;

  GoldenResult r;
  for (std::uint32_t round = 0; round < kRounds; ++round) {
    TxnWorkload workload(db, script, 1000 + round);
    workload.start(kTxnsPerRound);
    db.simulator().run();
    r.committed += workload.result().committed;
    r.given_up += workload.result().given_up;
    r.deadlocked_at_idle += db.oracle_deadlocked().size();
  }
  db.simulator().set_observer(nullptr);

  const ControllerStats s = db.total_stats();
  r.messages = db.simulator().stats().messages_delivered;
  r.probes = s.probes_sent;
  r.declarations = s.deadlocks_declared;
  h.mix(r.messages);
  h.mix(r.probes);
  h.mix(r.declarations);
  h.mix(s.meaningful_probes);
  h.mix(s.computations_initiated);
  h.mix(s.aborts_executed);
  r.hash = h.value();
  return r;
}

TEST(DdbGoldenTrace, SeededScheduleIsBitIdentical) {
  const GoldenResult r = run_golden_ddb();
  EXPECT_EQ(r.committed, 900u);
  EXPECT_EQ(r.given_up, 0u);
  EXPECT_EQ(r.deadlocked_at_idle, 0u);
  EXPECT_EQ(r.messages, 71131u);
  EXPECT_EQ(r.probes, 57991u);
  EXPECT_EQ(r.declarations, 208u);
  EXPECT_EQ(r.hash, 0x3a9c49ac01c61ec0ULL);
}

}  // namespace
}  // namespace cmh::ddb
