// DDB codec robustness: every message must round-trip through the one
// encoder and decoder, and every truncated prefix must be rejected cleanly.
#include <gtest/gtest.h>

#include <vector>

#include "ddb/messages.h"

namespace cmh::ddb {
namespace {

DdbProbeMsg sample_probe() {
  return DdbProbeMsg{
      DdbProbeTag{SiteId{3}, 0x123456789ULL},
      42,
      InterEdge{AgentId{TransactionId{7}, SiteId{3}},
                AgentId{TransactionId{7}, SiteId{9}}},
      true};
}

std::vector<DdbMessage> sample_messages() {
  return {
      DdbMessage{RemoteLockRequestMsg{TransactionId{1}, ResourceId{2},
                                      LockMode::kWrite}},
      DdbMessage{RemoteLockRequestMsg{TransactionId{0xFFFFFFFF},
                                      ResourceId{0}, LockMode::kRead}},
      DdbMessage{RemoteLockGrantMsg{TransactionId{5}, ResourceId{6}}},
      DdbMessage{PurgeTxnMsg{TransactionId{8}, true}},
      DdbMessage{PurgeTxnMsg{TransactionId{9}, false}},
      DdbMessage{sample_probe()},
      DdbMessage{DdbProbeMsg{}},
  };
}

TEST(DdbCodecRoundTrip, AllMessageTypes) {
  for (const DdbMessage& msg : sample_messages()) {
    const auto decoded = decode(encode(msg).view());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->index(), msg.index());
  }
  const auto decoded = decode(encode(DdbMessage{sample_probe()}).view());
  ASSERT_TRUE(decoded.ok());
  const auto& p = std::get<DdbProbeMsg>(*decoded);
  const DdbProbeMsg expected = sample_probe();
  EXPECT_EQ(p.tag, expected.tag);
  EXPECT_EQ(p.floor, expected.floor);
  EXPECT_EQ(p.edge, expected.edge);
  EXPECT_EQ(p.via_release_wait, expected.via_release_wait);
}

TEST(DdbCodecTruncation, EveryProperPrefixRejected) {
  for (const DdbMessage& msg : sample_messages()) {
    const DdbFrame frame = encode(msg);
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const auto r = decode(frame.view().first(cut));
      EXPECT_FALSE(r.ok()) << "prefix of " << cut << '/' << frame.size();
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace cmh::ddb
