// Per-site resource lock manager.
//
// Read/write locks with FIFO queueing: a request is granted iff it does not
// conflict with any current holder and no earlier queued request conflicts
// with it (no overtaking past conflicting waiters, which prevents
// starvation).  Lock upgrades (read -> write by the sole holder) are granted
// in place; contended upgrades queue like any other request and can
// deadlock -- the classic upgrade deadlock the detector must find.
//
// The manager also derives the local waits-for relation used for the
// intra-controller edges of section 6.4: a blocked request waits for every
// conflicting holder and every conflicting earlier waiter.
//
// A per-transaction index (resources queued on, resources held) is kept next
// to the per-resource state, so the per-transaction queries the controller
// asks on every probe -- is txn queued, whom does it wait for, where do its
// holdings come from -- touch only that transaction's queues, never the
// whole resource table.  Those queries write into caller storage and
// allocate nothing; a resource's holders and queue live inline in its
// entry.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_set.h"
#include "common/ids.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "ddb/types.h"

namespace cmh::ddb {

/// Outcome of an acquire call.
enum class AcquireResult : std::uint8_t {
  kGranted,   // lock held now
  kQueued,    // blocked; a grant will be reported later
  kRedundant  // already held in a mode at least as strong
};

struct LockRequest {
  TransactionId txn;
  LockMode mode;
  /// Site the request was forwarded from (== local site for local
  /// requests); carried so the controller can reply along the right
  /// inter-controller edge.
  SiteId origin;
};

/// A granted lock.  The origin is kept because the holding agent (T, here)
/// conceptually waits on the agent (T, origin) that commanded the
/// acquisition -- it may only release when that agent's computation
/// proceeds (the release-wait inter-controller edge; see controller.h).
struct Holding {
  LockMode mode;
  SiteId origin;
};

class LockManager {
 public:
  /// Requests `mode` on `resource` for `txn`.  Never blocks the caller;
  /// kQueued means the grant will surface via release()/abort() later.
  AcquireResult acquire(ResourceId resource, TransactionId txn, LockMode mode,
                        SiteId origin);

  /// Releases txn's hold on `resource` (no-op if not held) and grants any
  /// now-eligible queued requests, returning them in grant order.
  std::vector<LockRequest> release(ResourceId resource, TransactionId txn);

  /// Releases everything txn holds and cancels its queued requests.
  /// Returns the requests newly granted to *other* transactions.
  std::vector<std::pair<ResourceId, LockRequest>> abort(TransactionId txn);

  // ---- queries ------------------------------------------------------------

  [[nodiscard]] bool holds(ResourceId resource, TransactionId txn) const;
  [[nodiscard]] std::optional<LockMode> held_mode(ResourceId resource,
                                                  TransactionId txn) const;
  [[nodiscard]] bool waiting(ResourceId resource, TransactionId txn) const;

  /// Resources txn currently holds (sorted).
  [[nodiscard]] std::vector<ResourceId> held_by(TransactionId txn) const;

  /// True iff txn has at least one queued (ungranted) request.
  [[nodiscard]] bool has_queued(TransactionId txn) const;

  /// Appends the transactions txn waits for -- the targets of its outgoing
  /// wait_edges() -- to `out`, in no particular order and possibly with
  /// duplicates.  Touches only the queues txn is on.
  void wait_targets(TransactionId txn, std::vector<TransactionId>& out) const;

  /// Replaces `out` with the origin sites of txn's local holdings
  /// (deduplicated, sorted) -- the targets of its outgoing release-wait
  /// edges.
  void holding_origins(TransactionId txn, std::vector<SiteId>& out) const;

  /// The local waits-for relation: pairs (waiter, blocker) over
  /// transactions, derived from every queue (section 6.4 intra edges).
  [[nodiscard]] std::vector<std::pair<TransactionId, TransactionId>>
  wait_edges() const;

  /// True iff txn has a queued request forwarded from `origin` -- the
  /// black acquisition edge ((txn, origin), (txn, here)).
  [[nodiscard]] bool queued_from(TransactionId txn, SiteId origin) const;

  /// Every pending (queued) request across all resources.
  [[nodiscard]] std::vector<std::pair<ResourceId, LockRequest>>
  queued_requests() const;

  [[nodiscard]] std::size_t queue_depth(ResourceId resource) const;

  /// Transactions currently queued on `resource` (FIFO order).
  [[nodiscard]] std::vector<TransactionId> waiters(ResourceId resource) const;

  /// Transactions a hypothetical request (txn, mode) on `resource` would
  /// wait for right now: conflicting holders and conflicting queued
  /// requests.  Used by the harness oracle to account for in-flight (grey)
  /// requests.
  [[nodiscard]] std::vector<TransactionId> blockers(ResourceId resource,
                                                    TransactionId txn,
                                                    LockMode mode) const;

  /// Folds holders and queues into `h` (sorted iteration, so the value is
  /// independent of hash-map ordering).  Used by the exhaustive
  /// interleaving checker to fingerprint states.
  void mix_state_hash(std::uint64_t& h) const;

 private:
  struct Holder {
    TransactionId txn;
    Holding holding;
  };

  struct ResourceState {
    // Multiple readers, or one writer, in grant order (nothing depends on
    // that order).  Inline storage: a resource has a handful of holders and
    // waiters, and a fresh entry allocates nothing beyond its map node.
    SmallVector<Holder, 2> holders;
    SmallVector<LockRequest, 4> queue;  // FIFO

    [[nodiscard]] const Holder* holder(TransactionId txn) const;
    [[nodiscard]] Holder* holder(TransactionId txn);
    /// Removes txn's holding; returns false if txn held nothing here.
    bool erase_holder(TransactionId txn);
  };

  /// True iff `req` (at queue position `pos`) can be granted now.
  [[nodiscard]] static bool grantable(const ResourceState& rs,
                                      const LockRequest& req, std::size_t pos);

  /// Pops every grantable request from the front region of the queue.
  std::vector<LockRequest> grant_eligible(ResourceId resource,
                                          ResourceState& rs);

  /// The resources one transaction has a queued request on (possibly
  /// more than one, e.g. a read then a write) and the resources it holds.
  /// Inline storage: a transaction touches a handful of resources.
  struct TxnIndex {
    FlatSet<ResourceId, 4> queued;
    FlatSet<ResourceId, 4> held;
  };

  /// Calls fn(resource, state, pos) for every queue position txn occupies.
  template <typename Fn>
  void for_each_queued(TransactionId txn, Fn&& fn) const;

  // Invariant: every entry has a non-empty holder set or queue.  abort()
  // walks this map in its own iteration order, which fixes the order of
  // the grants it returns (and so the order grant messages are sent); the
  // per-transaction index below must therefore never replace that walk.
  std::unordered_map<ResourceId, ResourceState> resources_;
  // Entries exist exactly for transactions that hold or queue something.
  std::unordered_map<TransactionId, TxnIndex> by_txn_;
};

}  // namespace cmh::ddb
