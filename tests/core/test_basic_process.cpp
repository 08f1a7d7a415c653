// Unit tests for BasicProcess with hand-delivered messages: a tiny rig that
// lets each test play postman and interleave deliveries adversarially.
#include "core/basic_process.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>

namespace cmh::core {
namespace {

/// Manual message fabric: sends queue up; tests deliver selectively.
class Rig {
 public:
  explicit Rig(std::uint32_t n, Options options = {}) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const ProcessId id{i};
      procs_.push_back(std::make_unique<BasicProcess>(
          id,
          [this, id](ProcessId to, BytesView payload) {
            wires_[{id, to}].emplace_back(payload.begin(), payload.end());
          },
          options));
    }
  }

  BasicProcess& p(std::uint32_t i) { return *procs_.at(i); }

  std::size_t pending(std::uint32_t from, std::uint32_t to) {
    return wires_[{ProcessId{from}, ProcessId{to}}].size();
  }

  /// Delivers the oldest message on channel from->to.
  void deliver_one(std::uint32_t from, std::uint32_t to) {
    auto& q = wires_.at({ProcessId{from}, ProcessId{to}});
    ASSERT_FALSE(q.empty());
    const Bytes payload = q.front();
    q.pop_front();
    ASSERT_TRUE(p(to).on_message(ProcessId{from}, payload).ok());
  }

  /// Delivers everything until quiescent (FIFO per channel, round-robin).
  void deliver_all() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto& [channel, q] : wires_) {
        while (!q.empty()) {
          const Bytes payload = q.front();
          q.pop_front();
          ASSERT_TRUE(p(channel.second.value())
                          .on_message(channel.first, payload)
                          .ok());
          progressed = true;
        }
      }
    }
  }

  std::size_t total_pending() {
    std::size_t n = 0;
    for (auto& [channel, q] : wires_) n += q.size();
    return n;
  }

 private:
  std::vector<std::unique_ptr<BasicProcess>> procs_;
  std::map<std::pair<ProcessId, ProcessId>, std::deque<Bytes>> wires_;
};

Options manual() {
  Options o;
  o.initiation = InitiationMode::kManual;
  return o;
}

// ---- underlying computation ---------------------------------------------------

TEST(BasicProcess, RequestCreatesLocalOutEdge) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  EXPECT_TRUE(rig.p(0).waits_for().contains(ProcessId{1}));
  EXPECT_TRUE(rig.p(0).blocked());
  EXPECT_EQ(rig.pending(0, 1), 1u);
}

TEST(BasicProcess, RequestReceiptCreatesBlackInEdge) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.deliver_one(0, 1);
  EXPECT_TRUE(rig.p(1).held_requests().contains(ProcessId{0}));
}

TEST(BasicProcess, ReplyClearsBothSides) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.deliver_one(0, 1);
  rig.p(1).send_reply(ProcessId{0});
  EXPECT_FALSE(rig.p(1).held_requests().contains(ProcessId{0}));
  rig.deliver_one(1, 0);
  EXPECT_FALSE(rig.p(0).blocked());
  EXPECT_FALSE(rig.p(0).waits_for().contains(ProcessId{1}));
}

TEST(BasicProcess, DuplicateRequestIsModelViolation) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  EXPECT_THROW(rig.p(0).send_request(ProcessId{1}), ModelViolation);
}

TEST(BasicProcess, SelfRequestIsModelViolation) {
  Rig rig(1, manual());
  EXPECT_THROW(rig.p(0).send_request(ProcessId{0}), ModelViolation);
}

TEST(BasicProcess, BlockedProcessCannotReply) {
  // G3: only active processes may reply.
  Rig rig(3, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.deliver_one(0, 1);
  rig.p(1).send_request(ProcessId{2});  // p1 now blocked
  EXPECT_THROW(rig.p(1).send_reply(ProcessId{0}), ModelViolation);
}

TEST(BasicProcess, ReplyWithoutRequestIsModelViolation) {
  Rig rig(2, manual());
  EXPECT_THROW(rig.p(0).send_reply(ProcessId{1}), ModelViolation);
}

TEST(BasicProcess, UndecodablePayloadReturnsError) {
  Rig rig(1, manual());
  EXPECT_FALSE(rig.p(0).on_message(ProcessId{0}, Bytes{0xff}).ok());
}

// ---- probe computation: A0 / A1 / A2 ------------------------------------------

TEST(Probe, ActiveProcessCannotInitiate) {
  Rig rig(2, manual());
  EXPECT_EQ(rig.p(0).initiate(), std::nullopt);
}

TEST(Probe, InitiateSendsProbeOnEveryOutgoingEdge) {
  Rig rig(4, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(0).send_request(ProcessId{2});
  rig.p(0).send_request(ProcessId{3});
  const auto tag = rig.p(0).initiate();
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(tag->initiator, ProcessId{0});
  EXPECT_EQ(rig.pending(0, 1), 2u);  // request + probe
  EXPECT_EQ(rig.pending(0, 2), 2u);
  EXPECT_EQ(rig.pending(0, 3), 2u);
  EXPECT_EQ(rig.p(0).stats().probes_sent, 3u);
}

TEST(Probe, TwoCycleDetected) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(1).send_request(ProcessId{0});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  EXPECT_TRUE(rig.p(0).declared_deadlock());
  EXPECT_TRUE(rig.p(0).deadlocked());
}

TEST(Probe, NonInitiatorForwardsButDoesNotDeclare) {
  Rig rig(3, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(1).send_request(ProcessId{2});
  rig.p(2).send_request(ProcessId{0});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  EXPECT_TRUE(rig.p(0).declared_deadlock());
  EXPECT_FALSE(rig.p(1).declared_deadlock());
  EXPECT_FALSE(rig.p(2).declared_deadlock());
}

TEST(Probe, MeaninglessProbeDropped) {
  // Probe arrives along an edge that is not black at receipt (the receiver
  // holds no request from the sender) -- it must be ignored (P3 check).
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  const auto tag = rig.p(0).initiate();
  ASSERT_TRUE(tag.has_value());
  // Deliver the probe BEFORE the request: channel FIFO would forbid this,
  // but a buggy network might not; the meaningful check protects us.
  // (Request is message 0, probe is message 1 on the channel.)
  auto& p1 = rig.p(1);
  // Simulate out-of-order by delivering only the probe bytes.
  // Build the probe payload directly:
  const SmallFrame probe = encode(ProbeMsg{*tag});
  ASSERT_TRUE(p1.on_message(ProcessId{0}, probe.view()).ok());
  EXPECT_EQ(p1.stats().probes_received, 1u);
  EXPECT_EQ(p1.stats().meaningful_probes, 0u);
  EXPECT_EQ(p1.stats().probes_sent, 0u);
}

TEST(Probe, AcyclicChainNeverDeclares) {
  Rig rig(4, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(1).send_request(ProcessId{2});
  rig.p(2).send_request(ProcessId{3});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(rig.p(i).declared_deadlock()) << i;
  }
}

TEST(Probe, ForwardOnceGate) {
  // A2: only the FIRST meaningful probe of a computation triggers
  // forwarding; a diamond delivers two meaningful probes to p3.
  Rig rig(5, manual());
  // p0 -> p1 -> p3 -> p4,  p0 -> p2 -> p3
  rig.p(0).send_request(ProcessId{1});
  rig.p(0).send_request(ProcessId{2});
  rig.p(1).send_request(ProcessId{3});
  rig.p(2).send_request(ProcessId{3});
  rig.p(3).send_request(ProcessId{4});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  EXPECT_EQ(rig.p(3).stats().meaningful_probes, 2u);
  EXPECT_EQ(rig.p(3).stats().probes_sent, 1u);  // forwarded only once
}

TEST(Probe, ForwardEveryAblationForwardsTwice) {
  Options o = manual();
  o.forward_every_meaningful_probe = true;
  Rig rig(5, o);
  rig.p(0).send_request(ProcessId{1});
  rig.p(0).send_request(ProcessId{2});
  rig.p(1).send_request(ProcessId{3});
  rig.p(2).send_request(ProcessId{3});
  rig.p(3).send_request(ProcessId{4});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  EXPECT_EQ(rig.p(3).stats().probes_sent, 2u);
}

TEST(Probe, StaleComputationIgnored) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(1).send_request(ProcessId{0});
  rig.deliver_all();
  const auto tag1 = rig.p(0).initiate();
  const auto tag2 = rig.p(0).initiate();
  ASSERT_TRUE(tag1 && tag2);
  EXPECT_LT(tag1->sequence, tag2->sequence);
  // Deliver the newer computation first...
  rig.deliver_all();
  EXPECT_TRUE(rig.p(0).declared_deadlock());
  // p1 engaged with (0, n2); a late probe of (0, n1) must be dropped.
  const SmallFrame stale = encode(ProbeMsg{*tag1});
  const auto forwarded_before = rig.p(1).stats().probes_sent;
  ASSERT_TRUE(rig.p(1).on_message(ProcessId{0}, stale.view()).ok());
  EXPECT_EQ(rig.p(1).stats().probes_sent, forwarded_before);
}

TEST(Probe, InitiatorDeclaresOnlyOncePerComputation) {
  // Two disjoint return paths deliver two meaningful probes to the
  // initiator; only one declaration must result.
  Rig rig(3, manual());
  // p0 -> p1 -> p0 and p0 -> p2 -> p0: two 2-cycles through p0.
  rig.p(0).send_request(ProcessId{1});
  rig.p(0).send_request(ProcessId{2});
  rig.p(1).send_request(ProcessId{0});
  rig.p(2).send_request(ProcessId{0});
  rig.deliver_all();
  int declarations = 0;
  rig.p(0).set_deadlock_callback([&](const ProbeTag&) { ++declarations; });
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  EXPECT_EQ(declarations, 1);
  EXPECT_EQ(rig.p(0).stats().deadlocks_declared, 1u);
}

TEST(Probe, SeparateComputationsHaveDistinctTags) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  const auto t1 = rig.p(0).initiate();
  const auto t2 = rig.p(0).initiate();
  ASSERT_TRUE(t1 && t2);
  EXPECT_NE(*t1, *t2);
  EXPECT_EQ(t1->initiator, t2->initiator);
}

TEST(Probe, ConcurrentInitiatorsBothDetect) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(1).send_request(ProcessId{0});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  ASSERT_TRUE(rig.p(1).initiate().has_value());
  rig.deliver_all();
  EXPECT_TRUE(rig.p(0).declared_deadlock());
  EXPECT_TRUE(rig.p(1).declared_deadlock());
}

TEST(Probe, OnRequestModeInitiatesAutomatically) {
  Options o;  // default kOnRequest
  Rig rig(2, o);
  rig.p(0).send_request(ProcessId{1});
  EXPECT_EQ(rig.p(0).stats().computations_initiated, 1u);
  rig.p(1).send_request(ProcessId{0});
  rig.deliver_all();
  // p1's computation (initiated at the cycle-closing request) must detect.
  EXPECT_TRUE(rig.p(1).declared_deadlock());
}

TEST(Probe, DelayedModeRequiresTimerService) {
  Options o;
  o.initiation = InitiationMode::kDelayed;
  EXPECT_THROW(
      BasicProcess(ProcessId{0}, [](ProcessId, BytesView) {}, o, nullptr),
      std::invalid_argument);
}

// ---- stats ------------------------------------------------------------------------

TEST(Stats, CountersTrackTraffic) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.deliver_all();
  rig.p(1).send_reply(ProcessId{0});
  rig.deliver_all();
  EXPECT_EQ(rig.p(0).stats().requests_sent, 1u);
  EXPECT_EQ(rig.p(1).stats().replies_sent, 1u);
}

}  // namespace
}  // namespace cmh::core
