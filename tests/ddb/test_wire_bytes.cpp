// Golden wire bytes of the DDB model (section 6): every controller-to-
// controller message type is pinned byte for byte, so a change to the
// encoder that moves a single byte on the wire fails here, whatever shape
// (stack frame or heap buffer) the encoder returns.
#include <gtest/gtest.h>

#include "ddb/messages.h"

namespace cmh::ddb {
namespace {

// Copies an encoded frame out of whatever the encoder returned: a heap
// Bytes or a stack frame.
template <class Frame>
Bytes to_bytes(const Frame& frame) {
  return {frame.data(), frame.data() + frame.size()};
}

TEST(DdbWireBytes, LockRequest) {
  EXPECT_EQ(to_bytes(encode(DdbMessage{RemoteLockRequestMsg{
                TransactionId{0x01020304}, ResourceId{0x0A0B0C0D},
                LockMode::kWrite}})),
            (Bytes{0x01,                    //
                   0x04, 0x03, 0x02, 0x01,  // txn
                   0x0D, 0x0C, 0x0B, 0x0A,  // resource
                   0x01}));                 // kWrite
  EXPECT_EQ(to_bytes(encode(DdbMessage{RemoteLockRequestMsg{
                TransactionId{5}, ResourceId{6}, LockMode::kRead}})),
            (Bytes{0x01, 0x05, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
                   0x00}));
}

TEST(DdbWireBytes, LockGrant) {
  EXPECT_EQ(to_bytes(encode(DdbMessage{RemoteLockGrantMsg{
                TransactionId{0x01020304}, ResourceId{0x0A0B0C0D}}})),
            (Bytes{0x02,                    //
                   0x04, 0x03, 0x02, 0x01,  // txn
                   0x0D, 0x0C, 0x0B, 0x0A}));
}

TEST(DdbWireBytes, Purge) {
  EXPECT_EQ(to_bytes(encode(
                DdbMessage{PurgeTxnMsg{TransactionId{0x01020304}, true}})),
            (Bytes{0x03, 0x04, 0x03, 0x02, 0x01, 0x01}));
  EXPECT_EQ(to_bytes(encode(DdbMessage{PurgeTxnMsg{TransactionId{8}, false}})),
            (Bytes{0x03, 0x08, 0x00, 0x00, 0x00, 0x00}));
}

TEST(DdbWireBytes, Probe) {
  const DdbProbeMsg probe{
      DdbProbeTag{SiteId{0x01020304}, 0x1122334455667788ULL},
      0x0102030405060708ULL,
      InterEdge{AgentId{TransactionId{0x0A0B0C0D}, SiteId{3}},
                AgentId{TransactionId{0x0A0B0C0D}, SiteId{9}}},
      true};
  const Bytes expected{
      0x04,                                            // kProbe
      0x04, 0x03, 0x02, 0x01,                          // initiator
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // sequence
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // floor
      0x0D, 0x0C, 0x0B, 0x0A, 0x03, 0x00, 0x00, 0x00,  // edge.from
      0x0D, 0x0C, 0x0B, 0x0A, 0x09, 0x00, 0x00, 0x00,  // edge.to
      0x01};                                           // via_release_wait
  EXPECT_EQ(to_bytes(encode(DdbMessage{probe})), expected);
  EXPECT_EQ(expected.size(), kDdbFrameCapacity);
}

}  // namespace
}  // namespace cmh::ddb
