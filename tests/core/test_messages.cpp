#include "core/messages.h"

#include <gtest/gtest.h>

namespace cmh::core {
namespace {

template <class Msg>
Bytes encoded(const Msg& msg) {
  const SmallFrame frame = encode(msg);
  return {frame.view().begin(), frame.view().end()};
}

Bytes encoded(const WfgdMsg& msg) {
  Bytes out;
  encode_wfgd(msg.edges, out);
  return out;
}

TEST(CoreMessages, RequestRoundTrip) {
  const Bytes b = encoded(RequestMsg{});
  const auto m = decode(b);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(std::holds_alternative<RequestMsg>(*m));
}

TEST(CoreMessages, ReplyRoundTrip) {
  const auto m = decode(encoded(ReplyMsg{}));
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(std::holds_alternative<ReplyMsg>(*m));
}

TEST(CoreMessages, ProbeRoundTrip) {
  const ProbeMsg probe{ProbeTag{ProcessId{17}, 0xabcdef0123ULL}};
  const auto m = decode(encoded(probe));
  ASSERT_TRUE(m.ok());
  const auto* p = std::get_if<ProbeMsg>(&*m);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->tag, probe.tag);
}

TEST(CoreMessages, WfgdRoundTripEmpty) {
  const auto m = decode(encoded(WfgdMsg{}));
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(std::get<WfgdMsg>(*m).edges.empty());
}

TEST(CoreMessages, WfgdRoundTripEdges) {
  WfgdMsg msg;
  msg.edges.push_back(graph::Edge{ProcessId{1}, ProcessId{2}});
  msg.edges.push_back(graph::Edge{ProcessId{3}, ProcessId{4}});
  const auto m = decode(encoded(msg));
  ASSERT_TRUE(m.ok());
  const auto& got = std::get<WfgdMsg>(*m);
  ASSERT_EQ(got.edges.size(), 2u);
  EXPECT_EQ(got.edges[0], (graph::Edge{ProcessId{1}, ProcessId{2}}));
  EXPECT_EQ(got.edges[1], (graph::Edge{ProcessId{3}, ProcessId{4}}));
}

TEST(CoreMessages, EmptyPayloadRejected) {
  EXPECT_FALSE(decode(Bytes{}).ok());
}

TEST(CoreMessages, UnknownTypeRejected) {
  EXPECT_FALSE(decode(Bytes{0xee}).ok());
}

TEST(CoreMessages, TruncatedProbeRejected) {
  Bytes b = encoded(ProbeMsg{ProbeTag{ProcessId{1}, 2}});
  b.resize(b.size() - 1);
  EXPECT_FALSE(decode(b).ok());
}

TEST(CoreMessages, WfgdCountOverflowRejected) {
  // Claims 2^31 edges but supplies none.
  Bytes b;
  Writer w(b);
  w.u8(4);  // kWfgd
  w.u32(0x80000000u);
  EXPECT_FALSE(decode(b).ok());
}

TEST(CoreMessages, TrailingGarbageTolerated) {
  // Decoders read what they need; extra bytes are ignored by design (a
  // framing layer owns exact lengths).
  Bytes b = encoded(RequestMsg{});
  b.push_back(0xff);
  EXPECT_TRUE(decode(b).ok());
}

}  // namespace
}  // namespace cmh::core
