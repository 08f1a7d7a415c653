#include "ddb/database.h"

#include <algorithm>
#include <stdexcept>

#include "graph/cycles.h"

namespace cmh::ddb {

Database::Database(
    std::uint32_t n_sites, DdbOptions options,
    const std::function<Controller::Sender(SiteId)>& sender_for,
    TimerFn timers, std::function<SimTime()> clock,
    Controller::ResourceMap resource_map)
    : resource_map_(std::move(resource_map)), clock_(std::move(clock)) {
  controllers_.reserve(n_sites);
  for (std::uint32_t i = 0; i < n_sites; ++i) {
    const SiteId site{i};
    auto controller = std::make_unique<Controller>(
        site, n_sites, sender_for(site), resource_map_, options, timers);
    controller->set_grant_callback(
        [this](TransactionId txn, ResourceId resource) {
          if (txn.value() < txns_.size()) {
            txns_[txn.value()].granted.insert(resource);
          }
          if (grant_listener_) grant_listener_(txn, resource);
        });
    controller->set_abort_callback([this, site](TransactionId txn) {
      if (txn.value() < txns_.size() && txns_[txn.value()].home == site) {
        txns_[txn.value()].status = TxnStatus::kAborted;
        active_.erase(txn);
        if (abort_listener_) abort_listener_(txn);
      }
    });
    controller->set_deadlock_callback(
        [this, site](TransactionId victim, const DdbProbeTag& tag) {
          const DdbDetection d{victim, tag, site, clock_()};
          detections_.push_back(d);
          if (detection_listener_) detection_listener_(d);
        });
    controllers_.push_back(std::move(controller));
  }
}

TransactionId Database::begin(SiteId home) {
  if (home.value() >= n_sites()) {
    throw std::out_of_range("Database::begin: bad home site");
  }
  const TransactionId txn{static_cast<std::uint32_t>(txns_.size())};
  txns_.push_back(TxnState{home, TxnStatus::kActive, {}, {}});
  active_.insert(txn);
  return txn;
}

void Database::lock(TransactionId txn, ResourceId resource, LockMode mode) {
  TxnState& state = txn_state(txn);
  if (state.status != TxnStatus::kActive) {
    throw std::logic_error("Database::lock: transaction not active");
  }
  const auto it =
      std::find_if(state.requested.begin(), state.requested.end(),
                   [&](const auto& req) { return req.first == resource; });
  if (it == state.requested.end()) {
    state.requested.emplace_back(resource, mode);
  } else if (mode == LockMode::kWrite && it->second == LockMode::kRead) {
    // Upgrade: not granted again until the write lock is actually held.
    it->second = mode;
    state.granted.erase(resource);
  }
  controller(state.home).lock(txn, resource, mode);
}

void Database::finish(TransactionId txn) {
  TxnState& state = txn_state(txn);
  if (state.status != TxnStatus::kActive) return;
  state.status = TxnStatus::kCommitted;
  active_.erase(txn);
  controller(state.home).finish(txn);
}

void Database::abort(TransactionId txn) {
  TxnState& state = txn_state(txn);
  if (state.status != TxnStatus::kActive) return;
  // The controller's abort broadcast triggers the home-site abort callback,
  // which flips the status and notifies the listener.
  controller(state.home).abort(txn);
}

std::vector<TransactionId> Database::oracle_deadlocked() const {
  // Union of every site's local wait edges at the transaction level, plus
  // the waits implied by *in-flight* (grey) requests -- a request that has
  // been issued but not yet queued at the owner will wait on the owner's
  // current conflicting holders/waiters when it lands, and grey edges are
  // dark in the paper's model (they make cycles permanent too).  With no
  // request in flight this is exactly the global transaction-wait-for graph.
  std::vector<std::pair<TransactionId, TransactionId>> waits;
  for (const auto& c : controllers_) {
    const auto intra = c->intra_edges();
    waits.insert(waits.end(), intra.begin(), intra.end());
  }
  for (const TransactionId txn : active_) {
    const TxnState& state = txn_state(txn);
    for (const auto& [resource, mode] : state.requested) {
      if (state.granted.contains(resource)) continue;
      const LockManager& owner = controller(owner_of(resource)).locks();
      if (owner.waiting(resource, txn)) continue;  // already queued
      if (owner.holds(resource, txn)) continue;    // grant in flight
      for (const TransactionId blocker : owner.blockers(resource, txn, mode)) {
        waits.emplace_back(txn, blocker);
      }
    }
  }
  // A transaction is deadlocked iff it can reach itself.
  return graph::vertices_on_cycles(waits);
}

ControllerStats Database::total_stats() const {
  ControllerStats total;
  for (const auto& c : controllers_) {
    const ControllerStats& s = c->stats();
    total.local_requests += s.local_requests;
    total.remote_requests_sent += s.remote_requests_sent;
    total.remote_requests_received += s.remote_requests_received;
    total.grants_sent += s.grants_sent;
    total.grants_received += s.grants_received;
    total.probes_sent += s.probes_sent;
    total.probes_received += s.probes_received;
    total.meaningful_probes += s.meaningful_probes;
    total.computations_initiated += s.computations_initiated;
    total.local_cycle_detections += s.local_cycle_detections;
    total.deadlocks_declared += s.deadlocks_declared;
    total.purges_sent += s.purges_sent;
    total.aborts_executed += s.aborts_executed;
  }
  return total;
}

void Database::mix_state_hash(std::uint64_t& h) const {
  const auto mix = [&h](std::uint64_t v) { h = hash_combine(h, v); };
  for (const auto& c : controllers_) c->mix_state_hash(h);
  for (const TxnState& state : txns_) {
    mix(static_cast<std::uint64_t>(state.status));
    for (const auto& [resource, mode] : state.requested) {
      mix(resource.value());
      mix(static_cast<std::uint64_t>(mode));
      mix(state.granted.contains(resource));
    }
    mix(0xF3);  // separator between variable-length records
  }
}

}  // namespace cmh::ddb
