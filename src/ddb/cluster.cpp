#include "ddb/cluster.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_map>

namespace cmh::ddb {

Cluster::Cluster(ClusterConfig config)
    : config_(config), sim_(config.seed, config.delays) {
  controllers_.reserve(config_.n_sites);
  for (std::uint32_t i = 0; i < config_.n_sites; ++i) sim_.add_node({});
  for (std::uint32_t i = 0; i < config_.n_sites; ++i) {
    const SiteId site{i};
    auto controller = std::make_unique<Controller>(
        site, config_.n_sites,
        [this, site](SiteId to, BytesView payload) {
          sim_.send(site.value(), to.value(), payload);
        },
        [this](ResourceId r) { return owner_of(r); }, config_.options,
        [this](SimTime delay, std::function<void()> fn) {
          sim_.schedule(delay, std::move(fn));
        });
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
          const DdbDetection d{victim, tag, site, sim_.now()};
          detections_.push_back(d);
          if (detection_listener_) detection_listener_(d);
        });
    controllers_.push_back(std::move(controller));
    sim_.set_handler(i, [this, i](sim::NodeId from, const Bytes& payload) {
      const auto st =
          controllers_[i]->on_message(SiteId{from}, payload);
      if (!st.ok()) {
        throw std::logic_error("ddb::Cluster: bad frame: " + st.to_string());
      }
    });
  }
}

TransactionId Cluster::begin(SiteId home) {
  if (home.value() >= config_.n_sites) {
    throw std::out_of_range("Cluster::begin: bad home site");
  }
  const TransactionId txn{static_cast<std::uint32_t>(txns_.size())};
  txns_.push_back(TxnState{home, TxnStatus::kActive, {}, {}});
  active_.insert(txn);
  return txn;
}

void Cluster::lock(TransactionId txn, ResourceId resource, LockMode mode) {
  TxnState& state = txn_state(txn);
  if (state.status != TxnStatus::kActive) {
    throw std::logic_error("Cluster::lock: transaction not active");
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

void Cluster::finish(TransactionId txn) {
  TxnState& state = txn_state(txn);
  if (state.status != TxnStatus::kActive) return;
  state.status = TxnStatus::kCommitted;
  active_.erase(txn);
  controller(state.home).finish(txn);
}

void Cluster::abort(TransactionId txn) {
  TxnState& state = txn_state(txn);
  if (state.status != TxnStatus::kActive) return;
  // The controller's abort broadcast triggers the home-site abort callback,
  // which flips the status and notifies the listener.
  controller(state.home).abort(txn);
}

TxnStatus Cluster::status(TransactionId txn) const {
  return txn_state(txn).status;
}

bool Cluster::granted(TransactionId txn, ResourceId resource) const {
  return txn_state(txn).granted.contains(resource);
}

bool Cluster::all_granted(TransactionId txn) const {
  const TxnState& state = txn_state(txn);
  return state.granted.size() == state.requested.size();
}

SiteId Cluster::home_of(TransactionId txn) const {
  return txn_state(txn).home;
}

std::vector<TransactionId> Cluster::oracle_deadlocked() const {
  // Union of every site's local wait edges at the transaction level, plus
  // the waits implied by *in-flight* (grey) requests -- a request that has
  // been issued but not yet queued at the owner will wait on the owner's
  // current conflicting holders/waiters when it lands, and grey edges are
  // dark in the paper's model (they make cycles permanent too).  At
  // simulator idle there are no in-flight requests and this is exactly the
  // global transaction-wait-for graph.
  std::unordered_map<TransactionId, std::vector<TransactionId>> adj;
  std::set<TransactionId> nodes;
  for (const auto& c : controllers_) {
    for (const auto& [w, b] : c->intra_edges()) {
      adj[w].push_back(b);
      nodes.insert(w);
      nodes.insert(b);
    }
  }
  for (const TransactionId txn : active_) {
    const TxnState& state = txn_state(txn);
    for (const auto& [resource, mode] : state.requested) {
      if (state.granted.contains(resource)) continue;
      const auto& owner = *controllers_.at(owner_of(resource).value());
      if (owner.locks().waiting(resource, txn)) continue;  // already queued
      if (owner.locks().holds(resource, txn)) continue;    // grant in flight
      for (const TransactionId blocker :
           owner.locks().blockers(resource, txn, mode)) {
        adj[txn].push_back(blocker);
        nodes.insert(txn);
        nodes.insert(blocker);
      }
    }
  }

  // A transaction is deadlocked iff it can reach itself.
  std::vector<TransactionId> result;
  for (const TransactionId t : nodes) {
    std::set<TransactionId> seen;
    std::deque<TransactionId> frontier{t};
    bool cycle = false;
    while (!frontier.empty() && !cycle) {
      const TransactionId u = frontier.front();
      frontier.pop_front();
      const auto it = adj.find(u);
      if (it == adj.end()) continue;
      for (const TransactionId v : it->second) {
        if (v == t) {
          cycle = true;
          break;
        }
        if (seen.insert(v).second) frontier.push_back(v);
      }
    }
    if (cycle) result.push_back(t);
  }
  return result;
}

ControllerStats Cluster::total_stats() const {
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

}  // namespace cmh::ddb
