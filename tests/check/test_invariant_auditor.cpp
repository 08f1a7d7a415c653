// Unit tests for the paper-invariant auditor: each axiom G1-G4/P1-P4 and
// QRP1/QRP2 is exercised with a hand-crafted message history that violates
// exactly that axiom, plus clean histories that must stay silent.
#include <gtest/gtest.h>

#include <string>

#include "check/invariant_auditor.h"
#include "common/ids.h"
#include "core/basic_process.h"
#include "core/messages.h"
#include "core/options.h"

namespace cmh::check {
namespace {

const ProcessId p0{0};
const ProcessId p1{1};
const ProcessId p2{2};

SimTime at(int step) { return SimTime::us(step); }

Bytes copy(const core::SmallFrame& frame) {
  return {frame.view().begin(), frame.view().end()};
}
Bytes request_frame() { return copy(core::encode(core::RequestMsg{})); }
Bytes reply_frame() { return copy(core::encode(core::ReplyMsg{})); }
Bytes probe_frame(ProcessId initiator, std::uint64_t sequence) {
  return copy(core::encode(core::ProbeMsg{ProbeTag{initiator, sequence}}));
}
Bytes wfgd_frame() {
  const graph::Edge edge{p0, p1};
  Bytes out;
  core::encode_wfgd({&edge, 1}, out);
  return out;
}

AuditorConfig accumulate() {
  return {.abort_on_violation = false, .check_qrp1 = true};
}

TEST(InvariantAuditor, CleanLifecycleIsSilent) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  a.on_deliver(p0, p1, request_frame(), at(1));
  EXPECT_TRUE(a.derived().has_edge(p0, p1));
  EXPECT_EQ(a.derived().color(p0, p1), graph::EdgeColor::kBlack);
  a.on_send(p1, p0, reply_frame(), at(2));
  a.on_deliver(p1, p0, reply_frame(), at(3));
  a.finalize(at(4));
  EXPECT_TRUE(a.violations().empty()) << a.report();
  EXPECT_FALSE(a.derived().has_edge(p0, p1));
  EXPECT_EQ(a.events_observed(), 4u);
}

TEST(InvariantAuditor, DuplicateRequestIsG1) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  a.on_send(p0, p1, request_frame(), at(1));
  ASSERT_EQ(a.violations().size(), 1u) << a.report();
  EXPECT_EQ(a.violations().front().axiom, Axiom::kG1);
  EXPECT_EQ(a.violations().front().from, p0);
  EXPECT_EQ(a.violations().front().to, p1);
}

TEST(InvariantAuditor, RequestDeliveredTwiceIsG2) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  a.on_deliver(p0, p1, request_frame(), at(1));
  // Forged duplicate delivery: the edge is already black, so the blacken
  // transition is rejected.  (The never-sent frame also breaks FIFO, so P2
  // fires alongside G2 -- both must be present.)
  a.on_deliver(p0, p1, request_frame(), at(2));
  bool saw_g2 = false;
  bool saw_p2 = false;
  for (const Violation& v : a.violations()) {
    saw_g2 = saw_g2 || v.axiom == Axiom::kG2;
    saw_p2 = saw_p2 || v.axiom == Axiom::kP2;
  }
  EXPECT_TRUE(saw_g2) << a.report();
  EXPECT_TRUE(saw_p2) << a.report();
}

TEST(InvariantAuditor, ReplyOnGreyEdgeIsG3) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  // Reply before the request was even delivered: whitening a grey edge.
  a.on_send(p1, p0, reply_frame(), at(1));
  ASSERT_FALSE(a.violations().empty());
  EXPECT_EQ(a.violations().front().axiom, Axiom::kG3);
}

TEST(InvariantAuditor, ReplyFromBlockedProcessIsG3) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  a.on_deliver(p0, p1, request_frame(), at(1));
  a.on_send(p1, p2, request_frame(), at(2));  // p1 is now blocked
  a.on_send(p1, p0, reply_frame(), at(3));
  ASSERT_FALSE(a.violations().empty());
  EXPECT_EQ(a.violations().front().axiom, Axiom::kG3);
}

TEST(InvariantAuditor, ReplyDeliveredOnNonWhiteEdgeIsG4) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  a.on_deliver(p0, p1, request_frame(), at(1));
  // A forged reply delivery with no matching send: the edge is black, not
  // white, so removal is rejected (G4); the frame also fails FIFO (P2).
  a.on_deliver(p1, p0, reply_frame(), at(2));
  bool saw_g4 = false;
  for (const Violation& v : a.violations()) {
    saw_g4 = saw_g4 || v.axiom == Axiom::kG4;
  }
  EXPECT_TRUE(saw_g4) << a.report();
}

TEST(InvariantAuditor, ProbeOnMissingEdgeIsP1) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, probe_frame(p0, 1), at(0));
  ASSERT_FALSE(a.violations().empty());
  EXPECT_EQ(a.violations().front().axiom, Axiom::kP1);
}

TEST(InvariantAuditor, WfgdToNonBlackPredecessorIsP1) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  // Edge (p0, p1) is only grey: p0 is not yet a *black* predecessor of p1,
  // so p1 must not send it a WFGD edge set.
  a.on_send(p1, p0, wfgd_frame(), at(1));
  ASSERT_FALSE(a.violations().empty());
  EXPECT_EQ(a.violations().front().axiom, Axiom::kP1);
}

TEST(InvariantAuditor, FifoReorderIsP2) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  a.on_send(p0, p1, probe_frame(p0, 1), at(1));
  // The probe overtakes the request on the same channel.
  a.on_deliver(p0, p1, probe_frame(p0, 1), at(2));
  ASSERT_FALSE(a.violations().empty());
  EXPECT_EQ(a.violations().front().axiom, Axiom::kP2);
}

TEST(InvariantAuditor, NeverSentDeliveryIsP2) {
  InvariantAuditor a(accumulate());
  a.on_deliver(p0, p1, request_frame(), at(0));
  ASSERT_FALSE(a.violations().empty());
  EXPECT_EQ(a.violations().front().axiom, Axiom::kP2);
}

TEST(InvariantAuditor, LostFrameIsP4) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  a.on_deliver(p0, p1, request_frame(), at(1));
  a.on_send(p1, p0, reply_frame(), at(2));
  // The reply never arrives.
  a.finalize(at(3));
  ASSERT_EQ(a.violations().size(), 1u) << a.report();
  EXPECT_EQ(a.violations().front().axiom, Axiom::kP4);
  EXPECT_EQ(a.violations().front().from, p1);
  EXPECT_EQ(a.violations().front().to, p0);
}

TEST(InvariantAuditor, FalseDeclarationIsQRP2) {
  InvariantAuditor a(accumulate());
  a.on_send(p1, p0, request_frame(), at(0));
  a.on_deliver(p1, p0, request_frame(), at(1));
  // p0 holds a request but waits on nobody -- it is on no cycle.
  a.on_declare(p0, at(2));
  ASSERT_FALSE(a.violations().empty());
  EXPECT_EQ(a.violations().front().axiom, Axiom::kQRP2);
}

TEST(InvariantAuditor, UndeclaredDarkCycleIsQRP1) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  a.on_deliver(p0, p1, request_frame(), at(1));
  a.on_send(p1, p0, request_frame(), at(2));
  a.on_deliver(p1, p0, request_frame(), at(3));
  a.finalize(at(4));
  ASSERT_FALSE(a.violations().empty());
  EXPECT_EQ(a.violations().front().axiom, Axiom::kQRP1);
}

TEST(InvariantAuditor, DeclaredDarkCycleSatisfiesQRP1) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  a.on_deliver(p0, p1, request_frame(), at(1));
  a.on_send(p1, p0, request_frame(), at(2));
  a.on_deliver(p1, p0, request_frame(), at(3));
  a.on_declare(p0, at(4));  // on the dark cycle: QRP2 holds too
  a.finalize(at(5));
  EXPECT_TRUE(a.violations().empty()) << a.report();
  EXPECT_TRUE(a.declared().contains(p0));
}

TEST(InvariantAuditor, ManualInitiationDisablesQRP1) {
  InvariantAuditor a({.abort_on_violation = false, .check_qrp1 = false});
  a.on_send(p0, p1, request_frame(), at(0));
  a.on_deliver(p0, p1, request_frame(), at(1));
  a.on_send(p1, p0, request_frame(), at(2));
  a.on_deliver(p1, p0, request_frame(), at(3));
  a.finalize(at(4));
  EXPECT_TRUE(a.violations().empty()) << a.report();
}

TEST(InvariantAuditor, LocalViewProjectionP3) {
  InvariantAuditor a(accumulate());
  core::Options options;
  options.initiation = core::InitiationMode::kManual;
  core::BasicProcess process{p1, [](ProcessId, BytesView) {}, options};

  const Bytes req = request_frame();
  a.on_send(p0, p1, req, at(0));
  a.on_deliver(p0, p1, req, at(1));
  ASSERT_TRUE(process.on_message(p0, req).ok());
  a.check_local_view(process, at(1));
  EXPECT_TRUE(a.violations().empty()) << a.report();

  // A second delivery the process never handles: its held_requests no longer
  // matches the shadow graph's black in-edges.
  a.on_send(p2, p1, req, at(2));
  a.on_deliver(p2, p1, req, at(3));
  a.check_local_view(process, at(3));
  ASSERT_FALSE(a.violations().empty());
  EXPECT_EQ(a.violations().front().axiom, Axiom::kP3);
}

TEST(InvariantAuditor, AbortModeThrowsStructuredError) {
  InvariantAuditor a({.abort_on_violation = true, .check_qrp1 = true});
  a.on_send(p0, p1, request_frame(), at(0));
  try {
    a.on_send(p0, p1, request_frame(), at(1));
    FAIL() << "duplicate request must throw under abort_on_violation";
  } catch (const InvariantViolationError& e) {
    EXPECT_EQ(e.violation().axiom, Axiom::kG1);
    EXPECT_EQ(e.violation().from, p0);
    EXPECT_EQ(e.violation().to, p1);
  }
  // The violation is also retained for post-mortem reporting.
  EXPECT_FALSE(a.violations().empty());
}

TEST(InvariantAuditor, ReportNamesAxiomEventAndChannel) {
  InvariantAuditor a(accumulate());
  a.on_send(p0, p1, request_frame(), at(0));
  a.on_send(p0, p1, request_frame(), at(7));
  const std::string report = a.report();
  EXPECT_NE(report.find(to_string(Axiom::kG1)), std::string::npos) << report;
  EXPECT_NE(report.find(p0.to_string()), std::string::npos) << report;
  EXPECT_NE(report.find(p1.to_string()), std::string::npos) << report;
  const Violation& v = a.violations().front();
  EXPECT_NE(report.find(std::to_string(v.event_seq)), std::string::npos)
      << report;
}

}  // namespace
}  // namespace cmh::check
