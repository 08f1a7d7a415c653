#include "ddb/messages.h"

#include <gtest/gtest.h>

namespace cmh::ddb {
namespace {

Bytes encoded(const DdbMessage& msg) {
  const DdbFrame frame = encode(msg);
  return {frame.view().begin(), frame.view().end()};
}

TEST(DdbMessages, LockRequestRoundTrip) {
  const RemoteLockRequestMsg msg{TransactionId{5}, ResourceId{9},
                                 LockMode::kWrite};
  const auto m = decode(encoded(DdbMessage{msg}));
  ASSERT_TRUE(m.ok());
  const auto* got = std::get_if<RemoteLockRequestMsg>(&*m);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->txn, msg.txn);
  EXPECT_EQ(got->resource, msg.resource);
  EXPECT_EQ(got->mode, LockMode::kWrite);
}

TEST(DdbMessages, LockRequestReadMode) {
  const auto m = decode(encoded(
      DdbMessage{RemoteLockRequestMsg{TransactionId{1}, ResourceId{2},
                                      LockMode::kRead}}));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(std::get<RemoteLockRequestMsg>(*m).mode, LockMode::kRead);
}

TEST(DdbMessages, GrantRoundTrip) {
  const auto m = decode(
      encoded(DdbMessage{RemoteLockGrantMsg{TransactionId{3}, ResourceId{4}}}));
  ASSERT_TRUE(m.ok());
  const auto& got = std::get<RemoteLockGrantMsg>(*m);
  EXPECT_EQ(got.txn, TransactionId{3});
  EXPECT_EQ(got.resource, ResourceId{4});
}

TEST(DdbMessages, PurgeRoundTrip) {
  for (const bool aborted : {false, true}) {
    const auto m =
        decode(encoded(DdbMessage{PurgeTxnMsg{TransactionId{8}, aborted}}));
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(std::get<PurgeTxnMsg>(*m).aborted, aborted);
    EXPECT_EQ(std::get<PurgeTxnMsg>(*m).txn, TransactionId{8});
  }
}

TEST(DdbMessages, ProbeRoundTrip) {
  for (const bool release_wait : {false, true}) {
    DdbProbeMsg probe;
    probe.tag = DdbProbeTag{SiteId{2}, 77};
    probe.floor = 70;
    probe.edge = InterEdge{AgentId{TransactionId{5}, SiteId{2}},
                           AgentId{TransactionId{5}, SiteId{3}}};
    probe.via_release_wait = release_wait;
    const auto m = decode(encoded(DdbMessage{probe}));
    ASSERT_TRUE(m.ok());
    const auto& got = std::get<DdbProbeMsg>(*m);
    EXPECT_EQ(got.tag, probe.tag);
    EXPECT_EQ(got.floor, 70u);
    EXPECT_EQ(got.edge, probe.edge);
    EXPECT_EQ(got.via_release_wait, release_wait);
  }
}

TEST(DdbMessages, EmptyRejected) { EXPECT_FALSE(decode(Bytes{}).ok()); }

TEST(DdbMessages, UnknownTypeRejected) {
  EXPECT_FALSE(decode(Bytes{0x99}).ok());
}

TEST(DdbMessages, BadLockModeRejected) {
  Bytes b = encoded(DdbMessage{
      RemoteLockRequestMsg{TransactionId{1}, ResourceId{1}, LockMode::kRead}});
  b.back() = 7;  // corrupt the mode byte
  EXPECT_FALSE(decode(b).ok());
}

TEST(DdbMessages, TruncatedProbeRejected) {
  Bytes b = encoded(DdbMessage{DdbProbeMsg{}});
  b.resize(b.size() / 2);
  EXPECT_FALSE(decode(b).ok());
}

TEST(DdbTypes, ConflictMatrix) {
  EXPECT_FALSE(conflicts(LockMode::kRead, LockMode::kRead));
  EXPECT_TRUE(conflicts(LockMode::kRead, LockMode::kWrite));
  EXPECT_TRUE(conflicts(LockMode::kWrite, LockMode::kRead));
  EXPECT_TRUE(conflicts(LockMode::kWrite, LockMode::kWrite));
}

TEST(DdbTypes, ProbeTagOrdering) {
  EXPECT_LT((DdbProbeTag{SiteId{1}, 5}), (DdbProbeTag{SiteId{1}, 6}));
  EXPECT_LT((DdbProbeTag{SiteId{1}, 9}), (DdbProbeTag{SiteId{2}, 1}));
}

}  // namespace
}  // namespace cmh::ddb
