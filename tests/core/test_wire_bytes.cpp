// Golden wire bytes of the basic model and the OR model: every message type
// is pinned byte for byte, so a change to an encoder that moves a single
// byte on the wire fails here, whatever shape (stack frame or heap buffer)
// the encoder returns.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/basic_process.h"
#include "core/messages.h"
#include "core/or_model.h"

namespace cmh::core {
namespace {

// Copies an encoded frame out of whatever the encoder returned: a heap
// Bytes or a stack frame.
template <class Frame>
Bytes to_bytes(const Frame& frame) {
  return {frame.data(), frame.data() + frame.size()};
}

const ProbeTag kTag{ProcessId{0x01020304}, 0x1122334455667788ULL};

TEST(CoreWireBytes, RequestReplyProbe) {
  EXPECT_EQ(to_bytes(encode(RequestMsg{})), (Bytes{0x01}));
  EXPECT_EQ(to_bytes(encode(ReplyMsg{})), (Bytes{0x02}));
  EXPECT_EQ(to_bytes(encode(ProbeMsg{kTag})),
            (Bytes{0x03,                                             //
                   0x04, 0x03, 0x02, 0x01,                           //
                   0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}));
}

TEST(CoreWireBytes, WfgdEdgeSetAsSentByTheProtocol) {
  // Process 2 holds the request of process 0x0305, then learns two edges by
  // WFGD; it forwards their union with (0x0305, 2) to 0x0305, sorted.
  std::vector<std::pair<ProcessId, Bytes>> sent;
  Options o;
  o.initiation = InitiationMode::kManual;
  o.propagate_wfgd = true;
  BasicProcess p(
      ProcessId{2},
      [&sent](ProcessId to, BytesView payload) {
        sent.emplace_back(to, Bytes(payload.begin(), payload.end()));
      },
      o);
  ASSERT_TRUE(p.on_message(ProcessId{0x0305}, Bytes{0x01}).ok());
  const Bytes incoming{0x04, 0x02, 0x00, 0x00, 0x00,  // kWfgd, 2 edges
                       0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
                       0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00};
  ASSERT_TRUE(p.on_message(ProcessId{7}, incoming).ok());

  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].first, ProcessId{0x0305});
  EXPECT_EQ(sent[0].second,
            (Bytes{0x04, 0x03, 0x00, 0x00, 0x00,  // kWfgd, 3 edges
                   0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
                   0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
                   0x05, 0x03, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00}));
}

TEST(OrWireBytes, SignalQueryReply) {
  EXPECT_EQ(to_bytes(or_encode(OrMessage{OrSignalMsg{}})), (Bytes{0x01}));
  EXPECT_EQ(to_bytes(or_encode(OrMessage{OrQueryMsg{kTag}})),
            (Bytes{0x02,                                             //
                   0x04, 0x03, 0x02, 0x01,                           //
                   0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}));
  EXPECT_EQ(to_bytes(or_encode(OrMessage{OrReplyMsg{kTag}})),
            (Bytes{0x03,                                             //
                   0x04, 0x03, 0x02, 0x01,                           //
                   0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}));
}

}  // namespace
}  // namespace cmh::core
