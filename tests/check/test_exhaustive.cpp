// The exhaustive interleaving checker run over the canonical small
// scenarios: every delivery/script schedule of each scenario is enumerated
// (sleep-set-reduced but state-complete) with the paper-invariant auditor
// embedded, so a single failing schedule anywhere in the product fails the
// test with a replayable trace.  The SeededBug suite then plants one
// protocol/transport bug per axiom and asserts the checker convicts it of
// exactly that axiom.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/basic_system.h"
#include "check/ddb_system.h"
#include "check/explore.h"
#include "core/messages.h"
#include "core/options.h"

namespace cmh::check {
namespace {

const ProcessId p0{0};
const ProcessId p1{1};
const ProcessId p2{2};

core::Options on_request() {
  core::Options o;
  o.initiation = core::InitiationMode::kOnRequest;
  return o;
}

std::string diagnose(const ExploreResult& res) {
  std::ostringstream os;
  os << "states=" << res.states_visited
     << " transitions=" << res.transitions_executed
     << " sleep_pruned=" << res.sleep_pruned << " complete=" << res.complete
     << '\n';
  if (res.violation) {
    os << res.violation->to_string() << "\nschedule:\n";
    for (const std::string& step : res.trace) os << "  " << step << '\n';
  }
  return os.str();
}

// ---- canonical scenarios --------------------------------------------------

/// Three processes requesting in a ring: every schedule must end with the
/// dark cycle declared by someone (QRP1) and never declared early (QRP2).
BasicScenario ring_of_three() {
  return BasicScenario{
      .name = "ring-of-three",
      .n = 3,
      .options = on_request(),
      .scripts = {{ScriptOp::request(p1)},
                  {ScriptOp::request(p2)},
                  {ScriptOp::request(p0)}}};
}

/// A chain that blocks, unwinds, and re-requests: exercises the full
/// grey -> black -> white -> removed edge lifecycle plus probe traffic that
/// must die out without a declaration.
BasicScenario chain_with_churn() {
  return BasicScenario{
      .name = "chain-with-churn",
      .n = 3,
      .options = on_request(),
      .scripts = {{ScriptOp::request(p1), ScriptOp::request(p1)},
                  {ScriptOp::request(p2), ScriptOp::reply(p0),
                   ScriptOp::reply(p0)},
                  {ScriptOp::reply(p1)}}};
}

/// Two controllers, one resource each, transactions locking cross-wise.
/// Schedules split into two families: the cycle forms (both blocked; some
/// controller must declare) or one transaction wins both locks (no cycle;
/// nobody may declare).  Both oracles are checked at every leaf.
DdbScenario ddb_cross_lock() {
  const TransactionId t0{0};
  const TransactionId t1{1};
  const ResourceId r0{0};
  const ResourceId r1{1};
  return DdbScenario{
      .name = "ddb-cross-lock",
      .n_sites = 2,
      .resource_owner = {SiteId{0}, SiteId{1}},
      .scripts = {{DdbOp::lock(t0, r0), DdbOp::lock(t0, r1)},
                  {DdbOp::lock(t1, r1), DdbOp::lock(t1, r0)}}};
}

TEST(Exhaustive, RingOfThreeEverySchedule) {
  BasicSystem sys(ring_of_three());
  const ExploreResult res = explore(sys);
  EXPECT_TRUE(res.ok()) << diagnose(res);
  EXPECT_TRUE(res.complete) << diagnose(res);
  // The ring is small but not trivial: the product of request, probe and
  // WFGD deliveries is well beyond a handful of schedules.
  EXPECT_GT(res.states_visited, 50u);
}

TEST(Exhaustive, RingOfThreeUnprunedAgrees) {
  // Soundness cross-check for the sleep-set reduction: the full interleaving
  // product reaches the same verdict, and pruning never did less work.
  BasicSystem sys(ring_of_three());
  const ExploreResult pruned = explore(sys);
  BasicSystem sys_full(ring_of_three());
  const ExploreResult full =
      explore(sys_full, ExploreConfig{.sleep_sets = false});
  EXPECT_TRUE(pruned.ok()) << diagnose(pruned);
  EXPECT_TRUE(full.ok()) << diagnose(full);
  EXPECT_TRUE(full.complete);
  EXPECT_GE(full.transitions_executed, pruned.transitions_executed);
}

TEST(Exhaustive, ChainWithChurnEverySchedule) {
  BasicSystem sys(chain_with_churn());
  const ExploreResult res = explore(sys);
  EXPECT_TRUE(res.ok()) << diagnose(res);
  EXPECT_TRUE(res.complete) << diagnose(res);
  // Quiescent leaves end with an empty graph; no declaration anywhere.
  EXPECT_TRUE(sys.auditor().declared().empty());
}

TEST(Exhaustive, DdbCrossLockEverySchedule) {
  DdbSystem sys(ddb_cross_lock());
  const ExploreResult res = explore(sys);
  EXPECT_TRUE(res.ok()) << diagnose(res);
  EXPECT_TRUE(res.complete) << diagnose(res);
  EXPECT_GT(res.states_visited, 20u);
}

TEST(Exhaustive, DdbRejectsTimerBasedInitiation) {
  DdbScenario scenario = ddb_cross_lock();
  scenario.options.initiation = ddb::DdbInitiation::kDelayed;
  EXPECT_THROW(DdbSystem{scenario}, std::invalid_argument);
}

TEST(Exhaustive, DdbCrossLockStateSpaceIsPinned) {
  // The checker hosts the same ddb::Database as ddb::Cluster; these counts
  // pin the explored state space so a change to that shared core (or to the
  // harness around it) that alters the model shows up here.
  DdbSystem sys(ddb_cross_lock());
  const ExploreResult res = explore(sys);
  EXPECT_EQ(res.states_visited, 100u) << diagnose(res);
  EXPECT_EQ(res.transitions_executed, 104u) << diagnose(res);
  EXPECT_EQ(res.sleep_pruned, 40u) << diagnose(res);
}

TEST(Exhaustive, DdbRejectsMalformedTransactionIds) {
  // Transactions are opened through Database::begin(), which hands out
  // dense ids from 0, each homed at one site.
  DdbScenario gap = ddb_cross_lock();
  gap.scripts[1] = {DdbOp::lock(TransactionId{2}, ResourceId{1})};
  EXPECT_THROW(DdbSystem{gap}, std::invalid_argument);

  DdbScenario shared = ddb_cross_lock();
  shared.scripts[1].push_back(DdbOp::finish(TransactionId{0}));
  EXPECT_THROW(DdbSystem{shared}, std::invalid_argument);

  // One site may issue several transactions.
  DdbScenario two_at_one = ddb_cross_lock();
  two_at_one.scripts[0].push_back(DdbOp::lock(TransactionId{2}, ResourceId{1}));
  EXPECT_NO_THROW(DdbSystem{two_at_one});
}

// ---- seeded bugs: one planted defect per axiom ----------------------------

Bytes copy(const core::SmallFrame& frame) {
  return {frame.view().begin(), frame.view().end()};
}
Bytes request_frame() { return copy(core::encode(core::RequestMsg{})); }
Bytes reply_frame() { return copy(core::encode(core::ReplyMsg{})); }
Bytes probe_frame(ProcessId initiator, std::uint64_t sequence) {
  return copy(core::encode(core::ProbeMsg{ProbeTag{initiator, sequence}}));
}

void expect_convicts(BasicScenario scenario, Axiom axiom) {
  BasicSystem sys(std::move(scenario));
  const ExploreResult res = explore(sys);
  ASSERT_TRUE(res.violation.has_value())
      << "seeded bug went undetected; " << diagnose(res);
  EXPECT_EQ(res.violation->axiom, axiom) << diagnose(res);
  EXPECT_FALSE(res.trace.empty()) << "violation must come with a schedule";
}

TEST(SeededBug, DuplicateRequestConvictsG1) {
  // A process that "forgets" it already has an outstanding request and sends
  // a second one on the same edge.
  expect_convicts(
      BasicScenario{.name = "dup-request",
                    .n = 2,
                    .options = on_request(),
                    .scripts = {{ScriptOp::request(p1),
                                 ScriptOp::inject(p1, request_frame())}}},
      Axiom::kG1);
}

TEST(SeededBug, ReplyWhileBlockedConvictsG3) {
  // p1 replies to p0 after blocking on p2: only active processes may reply.
  expect_convicts(
      BasicScenario{.name = "reply-while-blocked",
                    .n = 3,
                    .options = on_request(),
                    .scripts = {{ScriptOp::request(p1)},
                                {ScriptOp::request(p2),
                                 ScriptOp::inject(p0, reply_frame())}}},
      Axiom::kG3);
}

TEST(SeededBug, ForwardedStaleProbeConvictsP1) {
  // A detector that forwards a probe along an edge it does not have.
  expect_convicts(
      BasicScenario{.name = "probe-without-edge",
                    .n = 2,
                    .options = on_request(),
                    .scripts = {{ScriptOp::inject(p1, probe_frame(p0, 1))}}},
      Axiom::kP1);
}

TEST(SeededBug, ReorderedChannelConvictsP2) {
  // The transport swaps the request and the initiation probe that follow
  // each other on channel (p0, p1): FIFO broken.
  BasicScenario scenario{.name = "reordered-channel",
                         .n = 2,
                         .options = on_request(),
                         .scripts = {{ScriptOp::request(p1)}}};
  scenario.faults.reorder_channel = {{p0, p1}};
  expect_convicts(std::move(scenario), Axiom::kP2);
}

TEST(SeededBug, DroppedReplyConvictsP4) {
  // p1's reply is lost in transit; at quiescence the channel history shows a
  // sent-but-never-delivered frame.
  BasicScenario scenario{.name = "dropped-reply",
                         .n = 2,
                         .options = on_request(),
                         .scripts = {{ScriptOp::request(p1)},
                                     {ScriptOp::reply(p0)}}};
  scenario.faults.drop_replies_from = p1;
  expect_convicts(std::move(scenario), Axiom::kP4);
}

TEST(SeededBug, ForgedOwnProbeConvictsQRP2) {
  // p1 forges a probe carrying p0's own tag (sequence numbers start at 1).
  // p0 holds p1's request, so the probe is meaningful, and step A1 makes p0
  // declare -- while it waits on nobody.  A false deadlock in every
  // schedule; the checker must catch it at declaration instant.
  expect_convicts(
      BasicScenario{.name = "forged-own-probe",
                    .n = 2,
                    .options = on_request(),
                    .scripts = {{},
                                {ScriptOp::request(p0),
                                 ScriptOp::inject(p0, probe_frame(p0, 1))}}},
      Axiom::kQRP2);
}

TEST(SeededBug, SwallowedProbesConvictQRP1) {
  // Every probe p2 sends vanishes before it reaches the wire.  All probe
  // routes around the ring traverse p2, so no computation can complete and
  // the dark cycle goes undeclared: a missed deadlock at quiescence.
  BasicScenario scenario = ring_of_three();
  scenario.name = "swallowed-probes";
  scenario.faults.swallow_probes_from = p2;
  expect_convicts(std::move(scenario), Axiom::kQRP1);
}

}  // namespace
}  // namespace cmh::check
