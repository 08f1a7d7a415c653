// Controller-to-controller wire messages of the DDB model (section 6).
//
// Lock traffic realizes the colored inter-controller edges:
//   RemoteLockRequestMsg  in flight  -- edge grey   (G3 of section 6.4)
//   ... received & queued            -- edge black  (G4)
//   RemoteLockGrantMsg sent          -- edge white  (G5)
//   ... received                     -- edge gone   (G6)
// DdbProbeMsg is the detection traffic of section 6.5; PurgeTxnMsg is the
// deadlock-resolution / commit cleanup channel.
//
// Every DDB message is fixed-size: encode() returns a stack frame and
// decode() is the one decoder.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <variant>

#include "common/serialize.h"
#include "common/status.h"
#include "ddb/types.h"

namespace cmh::ddb {

/// C_j forwards a lock request of transaction `txn` to the resource's
/// managing controller.  The wire sender site is the origin of the
/// inter-controller edge ((txn, sender), (txn, receiver)).
struct RemoteLockRequestMsg {
  TransactionId txn;
  ResourceId resource;
  LockMode mode{LockMode::kRead};
};

/// C_m tells the origin controller that (txn, m) acquired the resource.
struct RemoteLockGrantMsg {
  TransactionId txn;
  ResourceId resource;
};

/// Drop all local state of `txn` (locks held, queued requests).  Sent at
/// commit (release everything) and at deadlock-resolution abort.
struct PurgeTxnMsg {
  TransactionId txn;
  bool aborted{false};
};

/// Probe of computation `tag`, sent along inter-controller edge `edge`
/// (section 6.5).  `floor` is the lowest still-live sequence number of the
/// initiating controller's current detection round; receivers discard state
/// for that initiator's computations below it (the section-4.3 stale-tag
/// rule, generalized to the Q concurrent computations of section 6.7).
struct DdbProbeMsg {
  DdbProbeTag tag;
  std::uint64_t floor{0};
  InterEdge edge;
  /// False: acquisition edge -- (T, from) awaits a grant from (T, to)'s
  /// controller; meaningful iff T has a queued request at the receiver
  /// forwarded from `edge.from.site`.
  /// True: release-wait edge -- (T, from) holds a resource it acquired on
  /// behalf of (T, to) and can only release when that agent's computation
  /// proceeds; meaningful iff T is blocked at the receiver (T cannot have
  /// committed while blocked, so the holding at the sender still exists).
  bool via_release_wait{false};
};

using DdbMessage = std::variant<RemoteLockRequestMsg, RemoteLockGrantMsg,
                                PurgeTxnMsg, DdbProbeMsg>;

/// Wire size of a DdbProbeMsg frame: 1 (type) + 4 (initiator) + 8 (sequence)
/// + 8 (floor) + 2*8 (edge endpoints) + 1 (kind).  Every DDB frame fits.
inline constexpr std::size_t kDdbFrameCapacity = 38;

/// A stack-encoded frame; view() is valid for the frame's lifetime.  Lock
/// traffic and the detection hot path (one probe per inter-controller edge,
/// every round) heap-allocate nothing.
using DdbFrame = StackWriter<kDdbFrameCapacity>;

[[nodiscard]] DdbFrame encode(const DdbMessage& msg);
[[nodiscard]] Result<DdbMessage> decode(BytesView payload);

}  // namespace cmh::ddb
