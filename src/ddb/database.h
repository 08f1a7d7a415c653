// Database -- the transport-agnostic core of the DDB model: N controllers,
// the client transaction layer, the detection log and the ground-truth
// transaction-wait oracle.  Its host supplies a per-site Controller::Sender
// (stored by that controller as is: no extra hop per frame), a TimerFn, a
// clock for DdbDetection::at and the resource placement, and delivers each
// frame to controller(site).on_message().  ddb::Cluster hosts it on the
// simulator and check::DdbSystem over explicit FIFO deques: one model.
#pragma once

#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/flat_set.h"
#include "common/time.h"
#include "ddb/controller.h"

namespace cmh::ddb {

enum class TxnStatus : std::uint8_t { kActive, kCommitted, kAborted };

struct DdbDetection {
  TransactionId victim;
  DdbProbeTag tag;
  SiteId site;  // declaring controller
  SimTime at;
};

class Database {
 public:
  /// sender_for(s) returns the sender site s's controller stores; it is
  /// called once per site, here.  Controllers' callbacks capture `this`.
  Database(std::uint32_t n_sites, DdbOptions options,
           const std::function<Controller::Sender(SiteId)>& sender_for,
           TimerFn timers, std::function<SimTime()> clock,
           Controller::ResourceMap resource_map);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  [[nodiscard]] std::uint32_t n_sites() const {
    return static_cast<std::uint32_t>(controllers_.size());
  }
  [[nodiscard]] Controller& controller(SiteId s) {
    return *controllers_.at(s.value());
  }
  [[nodiscard]] const Controller& controller(SiteId s) const {
    return *controllers_.at(s.value());
  }

  /// The managing site of `r` (the host's static placement).
  [[nodiscard]] SiteId owner_of(ResourceId r) const { return resource_map_(r); }

  // ---- client transaction layer -------------------------------------------

  /// Starts a new transaction homed at `home`.  Ids are dense from 0.
  TransactionId begin(SiteId home);

  /// Requests a lock through the home controller.  Completion is reported
  /// via granted(); an abort via status().
  void lock(TransactionId txn, ResourceId resource, LockMode mode);

  /// Commits: releases all locks everywhere.  The transaction must not have
  /// requests still pending.
  void finish(TransactionId txn);

  /// Client-initiated abort (e.g. lock-wait timeout): releases everything
  /// everywhere; the abort listener fires as for a deadlock victim.
  void abort(TransactionId txn);

  [[nodiscard]] TxnStatus status(TransactionId txn) const {
    return txn_state(txn).status;
  }
  [[nodiscard]] bool granted(TransactionId txn, ResourceId resource) const {
    return txn_state(txn).granted.contains(resource);
  }
  [[nodiscard]] bool all_granted(TransactionId txn) const {
    return txn_state(txn).granted.size() == txn_state(txn).requested.size();
  }
  [[nodiscard]] SiteId home_of(TransactionId txn) const {
    return txn_state(txn).home;
  }

  /// Observer invoked when a lock is granted to a transaction (after the
  /// database's own bookkeeping).  Workload drivers use this to advance.
  using GrantListener = std::function<void(TransactionId, ResourceId)>;
  void set_grant_listener(GrantListener fn) { grant_listener_ = std::move(fn); }

  /// Observer invoked when a transaction is aborted (deadlock victim).
  using AbortListener = std::function<void(TransactionId)>;
  void set_abort_listener(AbortListener fn) { abort_listener_ = std::move(fn); }

  // ---- detection results ----------------------------------------------------

  [[nodiscard]] const std::vector<DdbDetection>& detections() const {
    return detections_;
  }

  /// Invoked synchronously at the declaration instant (before any victim
  /// abort), so tests can interrogate ground truth at that exact moment.
  using DetectionListener = std::function<void(const DdbDetection&)>;
  void set_detection_listener(DetectionListener fn) {
    detection_listener_ = std::move(fn);
  }

  // ---- oracle (global knowledge) --------------------------------------------

  /// Transactions on a cycle of the global transaction-wait relation,
  /// sorted: every site's intra-controller wait edges plus the waits of
  /// in-flight (grey) requests.  Once no request is in flight this is
  /// exactly the set of genuinely deadlocked transactions.
  [[nodiscard]] std::vector<TransactionId> oracle_deadlocked() const;

  /// Sum of controller stats across sites.
  [[nodiscard]] ControllerStats total_stats() const;

  /// Folds every controller's protocol state and each transaction's
  /// requested locks, granted locks and status into `h` (the exhaustive
  /// checker's state fingerprint).
  void mix_state_hash(std::uint64_t& h) const;

 private:
  // Per the paper's section 6.2, a transaction's computation stays at the
  // agent that issued the request ("(Ti,Sj) may now proceed with its
  // computation"): remote agents acquire on its behalf.  All lock requests
  // therefore originate from the home agent; the holding agents' dependence
  // on the home is the release-wait edge (see controller.h).
  //
  // One TxnState is kept per transaction ever begun (status() and friends
  // stay answerable), so it is kept small: a transaction locks a handful of
  // resources.
  struct TxnState {
    SiteId home;
    TxnStatus status{TxnStatus::kActive};
    /// Strongest mode requested per resource.
    std::vector<std::pair<ResourceId, LockMode>> requested;
    FlatSet<ResourceId, 4> granted;
  };

  /// The state of a transaction begun here; throws std::out_of_range else.
  [[nodiscard]] TxnState& txn_state(TransactionId txn) {
    return txns_.at(txn.value());
  }
  [[nodiscard]] const TxnState& txn_state(TransactionId txn) const {
    return txns_.at(txn.value());
  }

  Controller::ResourceMap resource_map_;
  std::function<SimTime()> clock_;
  std::vector<std::unique_ptr<Controller>> controllers_;
  // Indexed by transaction id: begin() hands out dense ids from 0.
  std::vector<TxnState> txns_;
  // Transactions with status kActive; the oracle walks only these, so its
  // cost does not grow with the number of transactions ever begun.
  std::unordered_set<TransactionId> active_;
  std::vector<DdbDetection> detections_;
  GrantListener grant_listener_;
  AbortListener abort_listener_;
  DetectionListener detection_listener_;
};

}  // namespace cmh::ddb
