// Extension: deadlock detection for the *communication (OR) model* -- the
// message-passing model the paper contrasts itself against in section 1
// ("a process which is waiting to communicate with other processes cannot
// proceed until it communicates with ANY one of the processes it is waiting
// for", reference [1], Chandy-Misra-Haas CACM 1983).  Section 7 explicitly
// lists "algorithms for different types of distributed systems" as future
// work; this module supplies the OR-model counterpart on the same
// transports.
//
// Model: a blocked process waits on a *dependent set*; receiving a signal
// from any member unblocks it.  A process is deadlocked iff no active
// process is reachable through dependent sets (every potential helper is
// itself stuck).
//
// Algorithm (diffusing computation, after Dijkstra-Scholten [2]):
//   * The initiator sends query(i, m) to every member of its dependent set.
//   * A blocked process engaged by its FIRST query of computation (i, m)
//     records the engager, forwards queries to its own dependent set and
//     waits for their replies; on any LATER query of (i, m) it replies
//     immediately (if still continuously blocked since engagement).
//   * When a process has replies for its whole wave it replies to its
//     engager; the initiator declares deadlock iff its own wave completes.
//   * Active processes discard queries, so any escape route starves the
//     wave and no declaration happens (soundness); if everyone reachable is
//     blocked, every query is answered eventually (completeness).
//   * Replies count only while the replier has been blocked *continuously*
//     since engagement (checked with a local wait-epoch counter).
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <variant>

#include "common/ids.h"
#include "common/serialize.h"
#include "common/status.h"

namespace cmh::core {

/// Wire messages of the OR model.
struct OrSignalMsg {};  // unblocks a waiting receiver

struct OrQueryMsg {
  ProbeTag tag;  // (initiator, sequence)
};

struct OrReplyMsg {
  ProbeTag tag;
};

using OrMessage = std::variant<OrSignalMsg, OrQueryMsg, OrReplyMsg>;

/// Largest OR-model frame: 1 (type) + 4 (initiator) + 8 (sequence) bytes.
inline constexpr std::size_t kOrFrameCapacity = 13;
using OrFrame = StackWriter<kOrFrameCapacity>;

[[nodiscard]] OrFrame or_encode(const OrMessage& msg);
[[nodiscard]] Result<OrMessage> or_decode(BytesView payload);

struct OrStats {
  std::uint64_t queries_sent{0};
  std::uint64_t queries_received{0};
  std::uint64_t replies_sent{0};
  std::uint64_t replies_received{0};
  std::uint64_t signals_sent{0};
  std::uint64_t computations_initiated{0};
  std::uint64_t deadlocks_declared{0};
};

class OrProcess {
 public:
  using Sender = std::function<void(ProcessId to, BytesView payload)>;
  using DeadlockCallback = std::function<void(const ProbeTag& tag)>;

  OrProcess(ProcessId id, Sender sender, bool initiate_on_block = true);

  OrProcess(const OrProcess&) = delete;
  OrProcess& operator=(const OrProcess&) = delete;

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] bool blocked() const { return dependent_set_.has_value(); }

  /// Current dependent set (nullopt while active).
  [[nodiscard]] const std::optional<std::set<ProcessId>>& waits_on() const {
    return dependent_set_;
  }
  [[nodiscard]] const OrStats& stats() const { return stats_; }
  [[nodiscard]] bool declared_deadlock() const { return declared_; }

  void set_deadlock_callback(DeadlockCallback cb) {
    on_deadlock_ = std::move(cb);
  }

  /// Blocks on `dependents` (OR semantics: any signal releases).  Initiates
  /// a detection computation if configured.  Must be active.
  void block_on(const std::set<ProcessId>& dependents);

  /// Sends a signal to `to` (only an active process can help others).
  void signal(ProcessId to);

  /// Manually starts a detection computation (requires blocked()).
  std::optional<ProbeTag> initiate();

  Status on_message(ProcessId from, BytesView payload);

 private:
  struct Engagement {
    std::uint64_t sequence{0};
    ProcessId engager;
    std::size_t awaiting{0};      // outstanding replies in our wave
    std::uint64_t wait_epoch{0};  // epoch when engaged (continuity check)
    bool done{false};             // wave complete (replied / declared)
  };

  void handle_signal(ProcessId from);
  void handle_query(ProcessId from, const OrQueryMsg& msg);
  void handle_reply(ProcessId from, const OrReplyMsg& msg);
  void send_wave(const ProbeTag& tag, Engagement& e);
  void complete_wave(const ProbeTag& tag, Engagement& e);

  ProcessId id_;
  Sender sender_;
  bool initiate_on_block_;
  DeadlockCallback on_deadlock_;

  std::optional<std::set<ProcessId>> dependent_set_;
  // Bumped on every block/unblock; replies/engagements from an older epoch
  // are void ("blocked continuously" check of the 1983 algorithm).
  std::uint64_t wait_epoch_{0};

  std::uint64_t next_sequence_{0};
  std::unordered_map<ProcessId, Engagement> engagements_;  // per initiator

  bool declared_{false};
  OrStats stats_;
};

}  // namespace cmh::core
