#include "core/messages.h"

namespace cmh::core {

void encode_wfgd(std::span<const graph::Edge> edges, Bytes& out) {
  Writer w(out);
  w.reserve(5 + 8 * edges.size());
  w.u8(wire::kWfgd);
  w.u32(static_cast<std::uint32_t>(edges.size()));
  for (const graph::Edge& e : edges) {
    w.id(e.from);
    w.id(e.to);
  }
}

Result<Message> decode_slow(BytesView payload) {
  Reader r(payload);
  std::uint8_t type = 0;
  if (auto st = r.u8(type); !st.ok()) return st;
  switch (type) {
    case wire::kProbe:  // decode() takes every complete probe frame
      return Status{StatusCode::kInvalidArgument, "truncated message"};
    case wire::kWfgd: {
      WfgdMsg m;
      std::uint32_t n = 0;
      if (auto st = r.u32(n); !st.ok()) return st;
      if (static_cast<std::uint64_t>(n) * 8 > r.remaining()) {
        return Status{StatusCode::kInvalidArgument, "wfgd: bad edge count"};
      }
      m.edges.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        graph::Edge e;
        e.from = r.id_unchecked<ProcessId>();
        e.to = r.id_unchecked<ProcessId>();
        m.edges.push_back(e);
      }
      return Message{std::move(m)};
    }
    default:
      return Status{StatusCode::kInvalidArgument, "unknown message type"};
  }
}

}  // namespace cmh::core
