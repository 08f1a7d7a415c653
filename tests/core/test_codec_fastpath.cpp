// Codec robustness properties, on the one encoder of each message shape:
//   * every message round-trips;
//   * every proper prefix of a valid frame is rejected with
//     kInvalidArgument -- truncation at ANY byte offset, not just the
//     offsets a hand-picked test happens to cover.
#include <gtest/gtest.h>

#include <vector>

#include "core/messages.h"
#include "core/or_model.h"

namespace cmh::core {
namespace {

std::vector<Message> sample_messages() {
  std::vector<Message> msgs;
  msgs.emplace_back(RequestMsg{});
  msgs.emplace_back(ReplyMsg{});
  msgs.emplace_back(ProbeMsg{ProbeTag{ProcessId{0}, 0}});
  msgs.emplace_back(ProbeMsg{ProbeTag{ProcessId{0xFFFFFFFF}, ~0ULL}});
  msgs.emplace_back(ProbeMsg{ProbeTag{ProcessId{7}, 123456}});
  msgs.emplace_back(WfgdMsg{});
  msgs.emplace_back(
      WfgdMsg{{graph::Edge{ProcessId{1}, ProcessId{2}},
               graph::Edge{ProcessId{2}, ProcessId{1}}}});
  WfgdMsg big;
  for (std::uint32_t i = 0; i < 100; ++i) {
    big.edges.push_back(graph::Edge{ProcessId{i}, ProcessId{i + 1}});
  }
  msgs.emplace_back(std::move(big));
  return msgs;
}

// Encodes `msg` with the encoder the protocol uses for its type.
Bytes encode_message(const Message& msg) {
  Bytes out;
  std::visit(
      [&out](const auto& m) {
        if constexpr (std::is_same_v<std::decay_t<decltype(m)>, WfgdMsg>) {
          encode_wfgd(m.edges, out);
        } else {
          const SmallFrame frame = encode(m);
          out.assign(frame.view().begin(), frame.view().end());
        }
      },
      msg);
  return out;
}

TEST(WfgdEncoder, ReusesScratchCapacity) {
  // A big frame followed by a small one: the buffer shrinks logically but
  // keeps its capacity, so repeated small encodes never reallocate.
  Bytes scratch;
  encode_wfgd(std::get<WfgdMsg>(sample_messages().back()).edges, scratch);
  const std::size_t cap = scratch.capacity();
  const graph::Edge edge{ProcessId{1}, ProcessId{2}};
  encode_wfgd({&edge, 1}, scratch);
  EXPECT_GE(cap, scratch.size());
  EXPECT_GE(scratch.capacity(), cap);
}

TEST(CodecRoundTrip, AllMessageTypes) {
  for (const Message& msg : sample_messages()) {
    const Bytes bytes = encode_message(msg);
    const auto decoded = decode(bytes);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->index(), msg.index());
    if (const auto* probe = std::get_if<ProbeMsg>(&msg)) {
      EXPECT_EQ(std::get<ProbeMsg>(*decoded).tag, probe->tag);
    } else if (const auto* wfgd = std::get_if<WfgdMsg>(&msg)) {
      EXPECT_EQ(std::get<WfgdMsg>(*decoded).edges, wfgd->edges);
    }
  }
}

TEST(CodecTruncation, EveryProperPrefixRejected) {
  for (const Message& msg : sample_messages()) {
    const Bytes bytes = encode_message(msg);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const auto r = decode(BytesView(bytes.data(), cut));
      EXPECT_FALSE(r.ok()) << "prefix of " << cut << '/' << bytes.size();
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(CodecTruncation, TrailingGarbageStillDecodes) {
  // The codecs are length-framed by the transport; bytes beyond a complete
  // frame are the next frame's problem, not an error here.
  Bytes bytes = encode_message(ProbeMsg{ProbeTag{ProcessId{3}, 9}});
  bytes.push_back(0x55);
  EXPECT_TRUE(decode(bytes).ok());
}

TEST(OrCodecTruncation, EveryProperPrefixRejected) {
  const OrFrame frame =
      or_encode(OrMessage{OrQueryMsg{ProbeTag{ProcessId{5}, 77}}});
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const auto r = or_decode(frame.view().first(cut));
    EXPECT_FALSE(r.ok()) << "prefix of " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace cmh::core
