// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#include "ddb/messages.h"

namespace cmh::ddb {

namespace {
enum WireType : std::uint8_t {
  kLockRequest = 1,
  kLockGrant = 2,
  kPurge = 3,
  kProbe = 4,
};
}  // namespace

DdbFrame encode(const DdbMessage& msg) {
  DdbFrame f;
  std::visit(
      [&f](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RemoteLockRequestMsg>) {
          f.u8(kLockRequest);
          f.id(m.txn);
          f.id(m.resource);
          f.u8(static_cast<std::uint8_t>(m.mode));
        } else if constexpr (std::is_same_v<T, RemoteLockGrantMsg>) {
          f.u8(kLockGrant);
          f.id(m.txn);
          f.id(m.resource);
        } else if constexpr (std::is_same_v<T, PurgeTxnMsg>) {
          f.u8(kPurge);
          f.id(m.txn);
          f.u8(m.aborted ? 1 : 0);
        } else if constexpr (std::is_same_v<T, DdbProbeMsg>) {
          f.u8(kProbe);
          f.id(m.tag.initiator);
          f.u64(m.tag.sequence);
          f.u64(m.floor);
          f.agent(m.edge.from);
          f.agent(m.edge.to);
          f.u8(m.via_release_wait ? 1 : 0);
        }
      },
      msg);
  return f;
}

Result<DdbMessage> decode(BytesView payload) {
  Reader r(payload);
  std::uint8_t type = 0;
  if (auto st = r.u8(type); !st.ok()) return st;
  switch (type) {
    case kLockRequest: {
      RemoteLockRequestMsg m;
      std::uint8_t mode = 0;
      if (auto st = r.id(m.txn); !st.ok()) return st;
      if (auto st = r.id(m.resource); !st.ok()) return st;
      if (auto st = r.u8(mode); !st.ok()) return st;
      if (mode > 1) {
        return Status{StatusCode::kInvalidArgument, "bad lock mode"};
      }
      m.mode = static_cast<LockMode>(mode);
      return DdbMessage{m};
    }
    case kLockGrant: {
      RemoteLockGrantMsg m;
      if (auto st = r.id(m.txn); !st.ok()) return st;
      if (auto st = r.id(m.resource); !st.ok()) return st;
      return DdbMessage{m};
    }
    case kPurge: {
      PurgeTxnMsg m;
      std::uint8_t aborted = 0;
      if (auto st = r.id(m.txn); !st.ok()) return st;
      if (auto st = r.u8(aborted); !st.ok()) return st;
      m.aborted = aborted != 0;
      return DdbMessage{m};
    }
    case kProbe: {
      // Fixed-size frame: one bounds check, then unchecked field reads.
      if (r.remaining() < kDdbFrameCapacity - 1) {
        return Status{StatusCode::kInvalidArgument, "truncated message"};
      }
      DdbProbeMsg m;
      m.tag.initiator = r.id_unchecked<SiteId>();
      m.tag.sequence = r.u64_unchecked();
      m.floor = r.u64_unchecked();
      m.edge.from.transaction = r.id_unchecked<TransactionId>();
      m.edge.from.site = r.id_unchecked<SiteId>();
      m.edge.to.transaction = r.id_unchecked<TransactionId>();
      m.edge.to.site = r.id_unchecked<SiteId>();
      m.via_release_wait = r.u8_unchecked() != 0;
      return DdbMessage{m};
    }
    default:
      return Status{StatusCode::kInvalidArgument, "unknown ddb message type"};
  }
}

}  // namespace cmh::ddb
