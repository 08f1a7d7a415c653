// Controller C_j of the Menasce-Muntz DDB model with the Chandy-Misra-Haas
// probe computation of section 6 built in.  A probe receipt allocates
// nothing once the controller is warm: its state is flat (sorted vectors,
// site-indexed arrays) and the probe path's search runs in reused scratch.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
//
// Responsibilities (section 6.2):
//   * manage local resources through a LockManager,
//   * forward lock requests for remote resources to the owning controller,
//   * answer forwarded requests and ship grants back,
//   * run the deadlock detection algorithm A0/A1/A2 of section 6.6 over the
//     local intra-controller graph and the inter-controller edges,
//   * optionally abort detected victims (resolution) -- the paper defers
//     "how deadlocks should be broken" to [3,6]; we implement the standard
//     victim-abort so examples/benches can show liveness after detection.
//
// Like BasicProcess, the controller is a transport-agnostic state machine;
// callers must serialize calls per instance (the paper's atomic-step note).
//
// Local knowledge is exactly the DDB P3: intra-controller edges and incoming
// *black* inter-controller edges are derived from the lock queues; outgoing
// inter-controller edges are known to exist (pending remote requests) but
// their color is not locally observable.
#pragma once

#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"
#include "common/flat_set.h"
#include "common/ids.h"
#include "common/time.h"
#include "ddb/lock_manager.h"
#include "ddb/messages.h"

namespace cmh::ddb {

enum class DdbInitiation {
  kManual,   // harness calls initiate_for()/check_all()
  kOnBlock,  // initiate the instant a local process blocks (section 4.2)
  kDelayed,  // initiate T after a local process blocks, if still blocked
};

struct DdbOptions {
  DdbInitiation initiation{DdbInitiation::kDelayed};
  SimTime initiation_delay{SimTime::ms(5)};

  /// Section 6.7: when checking all constituent processes, initiate only Q
  /// computations (one per process with an incoming black inter-controller
  /// edge) after a free local-cycle check, instead of one per blocked
  /// process.  bench_t4 toggles this.
  bool q_optimization{true};

  /// Abort the victim transaction (everywhere) upon detection.
  bool abort_victim{true};
};

struct ControllerStats {
  std::uint64_t local_requests{0};
  std::uint64_t remote_requests_sent{0};
  std::uint64_t remote_requests_received{0};
  std::uint64_t grants_sent{0};
  std::uint64_t grants_received{0};
  std::uint64_t probes_sent{0};
  std::uint64_t probes_received{0};
  std::uint64_t meaningful_probes{0};
  std::uint64_t computations_initiated{0};
  std::uint64_t local_cycle_detections{0};
  std::uint64_t deadlocks_declared{0};
  std::uint64_t purges_sent{0};
  std::uint64_t aborts_executed{0};
};

class Controller {
 public:
  /// The payload view is only valid for the duration of the call.
  using Sender = std::function<void(SiteId to, BytesView payload)>;

  /// Maps a resource to its managing site (static data placement).
  using ResourceMap = std::function<SiteId(ResourceId)>;

  /// Invoked when a lock requested through this controller is acquired.
  using GrantCallback =
      std::function<void(TransactionId txn, ResourceId resource)>;
  /// Invoked when a transaction is aborted (deadlock victim) at this site.
  using AbortCallback = std::function<void(TransactionId txn)>;
  /// Invoked when this controller declares `victim` deadlocked.
  using DeadlockCallback =
      std::function<void(TransactionId victim, const DdbProbeTag& tag)>;

  Controller(SiteId id, std::uint32_t n_sites, Sender sender,
             ResourceMap resource_map, DdbOptions options, TimerFn timers);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  [[nodiscard]] SiteId id() const { return id_; }
  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  [[nodiscard]] const LockManager& locks() const { return locks_; }

  void set_grant_callback(GrantCallback cb) { on_grant_ = std::move(cb); }
  void set_abort_callback(AbortCallback cb) { on_abort_ = std::move(cb); }
  void set_deadlock_callback(DeadlockCallback cb) {
    on_deadlock_ = std::move(cb);
  }

  // ---- client API (called by the transaction layer at this site) ---------

  /// Transaction `txn` (home = this site) requests `mode` on `resource`.
  /// Returns true if granted synchronously; otherwise the grant (or an
  /// abort) arrives via callback.
  bool lock(TransactionId txn, ResourceId resource, LockMode mode);

  /// Commit/finish: release all of txn's locks everywhere.
  void finish(TransactionId txn);

  /// Abort txn everywhere (also used internally for deadlock victims).
  void abort(TransactionId txn);

  // ---- transport ----------------------------------------------------------

  Status on_message(SiteId from, BytesView payload);

  // ---- detection ----------------------------------------------------------

  /// Step A0 for local process (txn, this site).  Returns the tag if a
  /// probe computation started, nullopt if txn is not blocked here or a
  /// local (intra-controller) cycle was declared directly.
  std::optional<DdbProbeTag> initiate_for(TransactionId txn);

  /// "Controller wishes to determine if any of its processes are
  /// deadlocked" (section 6.7): local-cycle check plus Q probe computations
  /// (or one per blocked process when q_optimization is off).
  /// Returns the number of probe computations initiated.
  std::size_t check_all();

  // ---- introspection (used by harness oracle and tests) ------------------

  /// True iff (txn, this site) is blocked: it has a queued local request or
  /// an outstanding remote request.
  [[nodiscard]] bool blocked(TransactionId txn) const;

  /// Intra-controller wait edges between local agents.
  [[nodiscard]] std::vector<std::pair<TransactionId, TransactionId>>
  intra_edges() const {
    return locks_.wait_edges();
  }

  /// Transactions with an incoming black inter-controller edge here (the Q
  /// of section 6.7), i.e. with a queued forwarded request.
  [[nodiscard]] std::vector<TransactionId> incoming_black_processes() const;

  /// Replaces `out` with the remote sites this txn has outstanding requests
  /// toward (outgoing inter-controller edges from (txn, this site)), in
  /// ascending order.
  void pending_remote_sites(TransactionId txn, std::vector<SiteId>& out) const;

  [[nodiscard]] const std::vector<std::pair<TransactionId, DdbProbeTag>>&
  declared_victims() const {
    return declared_;
  }

  /// Folds the protocol-relevant controller state into `h` (sorted
  /// iteration over unordered containers; stats excluded).  Used by the
  /// exhaustive interleaving checker to fingerprint global states.
  void mix_state_hash(std::uint64_t& h) const;

 private:
  struct Computation {
    std::uint64_t sequence{0};
    FlatSet<InterEdge, 4> probes_sent;
    /// For computations this controller initiated: the process it is
    /// checking (the (T_i, S_j) of A0/A1).
    std::optional<TransactionId> target;
    bool declared{false};
  };

  using TxnSet = FlatSet<TransactionId, 16>;

  void handle_lock_request(SiteId from, const RemoteLockRequestMsg& msg);
  void handle_grant(SiteId from, const RemoteLockGrantMsg& msg);
  void handle_purge(SiteId from, const PurgeTxnMsg& msg);
  void handle_probe(SiteId from, const DdbProbeMsg& msg);

  /// Dispatches grants produced by the lock manager (local callback or
  /// RemoteLockGrantMsg to the origin site).
  void dispatch_grants(
      const std::vector<std::pair<ResourceId, LockRequest>>& grants);

  /// Fills reachable_ with the agents intra-reachable from `txn`
  /// (reflexive); returns true iff txn reaches itself through at least one
  /// edge (a local cycle).
  bool intra_reachable(TransactionId txn);

  /// The computation `tag`, created (in sequence order) if absent.  The
  /// reference is invalidated by the next creation for the same initiator.
  Computation& computation(const DdbProbeTag& tag);

  /// Sends probes of `comp` along all un-probed outgoing inter edges of
  /// `processes`.  Only *currently* intra-reachable processes may be passed:
  /// forwarding from stale labels would manufacture wait chains that never
  /// coexisted and break QRP2 (see handle_probe).
  ///
  /// `skip_release_wait_for`: when the probe entered agent (t, here) along
  /// t's own acquisition edge, t's release-wait edge would bounce the probe
  /// straight back to the agent it came from -- the two edges connect the
  /// same agent pair in opposite directions but concern *different
  /// resources*, so the bounce is not a deadlock cycle.  The entry
  /// transaction's release-wait edges are suppressed in that case.
  /// `floor` is the stale-computation floor stamped on each probe.  It
  /// belongs to the *initiator's* sequence space: the initiator stamps its
  /// own current floor, and forwarders must propagate the floor they
  /// received verbatim -- stamping a forwarder's floor would corrupt the
  /// initiator's numbering at downstream receivers.
  void send_probes(const DdbProbeTag& tag, std::uint64_t floor,
                   Computation& comp, const TxnSet& processes,
                   TransactionId skip_release_wait_for);

  /// Sends `msg` to every other site.
  void broadcast_purge(const PurgeTxnMsg& msg);

  /// Drops txn's outgoing edges, remote holdings and own computation entry
  /// (commit, abort, purge).
  void forget(TransactionId txn);

  void declare(TransactionId victim, const DdbProbeTag& tag);
  void schedule_block_check(TransactionId txn);

  /// Lowest still-live sequence of this controller's own computations.
  [[nodiscard]] std::uint64_t current_floor();

  /// Declares the lowest transaction of each cycle among intra edges.
  void detect_local_cycles();

  SiteId id_;
  std::uint32_t n_sites_;
  Sender send_;
  ResourceMap resource_map_;
  DdbOptions options_;
  TimerFn timers_;

  LockManager locks_;
  // Transactions known to be aborted.  A purge broadcast can overtake a
  // victim's in-flight lock request on a different channel; without the
  // tombstone the zombie request would occupy the resource forever.
  // Transaction ids are never reused, so tombstones are monotone-correct,
  // but the set grows for the controller's lifetime, one node per abort.
  // lint:allow(hot-path-alloc) -- until ROADMAP item 7 bounds it
  std::unordered_set<TransactionId> aborted_txns_;
  // pending_remote_[(txn, site)] = outstanding (unanswered) remote requests
  // of (txn, here) to agent (txn, site); ordered by txn, then site.
  FlatMap<AgentId, std::uint32_t> pending_remote_;
  // Agents (txn, site) holding resources acquired through this controller
  // -- i.e. this site's agents have *incoming* release-wait edges from
  // those holdings.  Feeds the section-6.7 Q set.
  FlatSet<AgentId, 16> remote_holdings_;

  std::uint64_t next_sequence_{0};
  // Latest own computation per target process; the minimum over live
  // entries is the `floor` advertised in outgoing probes.
  FlatMap<TransactionId, std::uint64_t> own_comp_seq_;
  // computations_[i]: live computations initiated by site i, ascending by
  // sequence.  A new sequence appends; a floor advance erases a prefix.
  std::vector<std::vector<Computation>> computations_;
  // floor_seen_[i]: highest floor seen from initiator i (0: none); probes
  // below it are stale (§4.3).
  std::vector<std::uint64_t> floor_seen_;

  std::vector<std::pair<TransactionId, DdbProbeTag>> declared_;

  // Scratch of the probe path, reused so a warm probe receipt allocates
  // nothing.  None is live across a callback: on_grant_, on_abort_ and
  // on_deadlock_ may re-enter lock(), which under kOnBlock reaches
  // initiate_for() and refills them.
  TxnSet reachable_;
  std::vector<TransactionId> frontier_;
  std::vector<TransactionId> targets_;
  std::vector<SiteId> sites_;

  GrantCallback on_grant_;
  AbortCallback on_abort_;
  DeadlockCallback on_deadlock_;
  ControllerStats stats_;
};

}  // namespace cmh::ddb
