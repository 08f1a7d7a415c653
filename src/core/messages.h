// Wire messages of the basic model.
//
// Requests and replies belong to the *underlying* computation (they move
// wait-for edges through grey -> black -> white); probes and WFGD edge-set
// messages belong to the *detection* computation (sections 3 and 5).  All
// four travel over the same FIFO channels, which is exactly what makes the
// process axioms P1/P2 hold.
//
// encode() returns the fixed-size types (Request/Reply/Probe) as a stack
// frame; encode_wfgd() writes an edge set into a caller-owned scratch
// buffer; decode() is the one decoder.  The probe path allocates nothing.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/serialize.h"
#include "common/status.h"
#include "graph/wait_for_graph.h"

namespace cmh::core {

/// Underlying computation: "please carry out an action for me".
/// Creates wait-for edge (sender, receiver); the edge is grey in flight and
/// blackens on receipt (G1, G2).
struct RequestMsg {};

/// Underlying computation: "done".  Whitens edge (receiver, sender) when
/// sent; the edge disappears on receipt (G3, G4).
struct ReplyMsg {};

/// Detection: probe of computation `tag`, traveling along wait-for edge
/// (sender, receiver).  Meaningful iff that edge exists and is black when
/// received (section 3.2), which the receiver checks locally per P3.
struct ProbeMsg {
  ProbeTag tag;
};

/// Section 5 WFGD computation: a set of edges lying on permanent black
/// paths from the receiver.
struct WfgdMsg {
  std::vector<graph::Edge> edges;
};

using Message = std::variant<RequestMsg, ReplyMsg, ProbeMsg, WfgdMsg>;

/// Largest wire size of the fixed-size message types: a probe frame is
/// 1 (type) + 4 (initiator) + 8 (sequence) bytes.
inline constexpr std::size_t kSmallFrameCapacity = 13;

/// A stack-encoded frame; view() is valid for the frame's lifetime.
using SmallFrame = StackWriter<kSmallFrameCapacity>;

namespace wire {
// Wire type tags: the first byte of every frame.
inline constexpr std::uint8_t kRequest = 1;
inline constexpr std::uint8_t kReply = 2;
inline constexpr std::uint8_t kProbe = 3;
inline constexpr std::uint8_t kWfgd = 4;
}  // namespace wire

[[nodiscard]] inline SmallFrame encode(const RequestMsg&) {
  SmallFrame f;
  f.u8(wire::kRequest);
  return f;
}

[[nodiscard]] inline SmallFrame encode(const ReplyMsg&) {
  SmallFrame f;
  f.u8(wire::kReply);
  return f;
}

[[nodiscard]] inline SmallFrame encode(const ProbeMsg& m) {
  SmallFrame f;
  f.u8(wire::kProbe);
  f.probe_tag(m.tag);
  return f;
}

/// Serializes the WFGD message carrying `edges` into `out` (cleared first;
/// capacity retained).
void encode_wfgd(std::span<const graph::Edge> edges, Bytes& out);

/// Out-of-line part of decode(): WFGD frames and every malformed frame.
[[nodiscard]] Result<Message> decode_slow(BytesView payload);

/// Decodes a frame.  The fixed-size types that dominate detection traffic
/// (request/reply/probe) are handled inline with a single size check;
/// everything else falls through to decode_slow().
[[nodiscard]] inline Result<Message> decode(BytesView payload) {
  if (!payload.empty()) {
    switch (payload[0]) {
      case wire::kRequest:
        return Message{RequestMsg{}};
      case wire::kReply:
        return Message{ReplyMsg{}};
      case wire::kProbe:
        if (payload.size() >= kSmallFrameCapacity) {
          Reader r(payload.subspan(1));
          ProbeMsg m;
          m.tag.initiator = r.id_unchecked<ProcessId>();
          m.tag.sequence = r.u64_unchecked();
          return Message{m};
        }
        break;
      default:
        break;
    }
  }
  return decode_slow(payload);
}

}  // namespace cmh::core
