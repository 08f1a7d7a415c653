#include "ddb/controller.h"

#include <algorithm>

#include "common/logging.h"
#include "graph/cycles.h"

namespace cmh::ddb {

Controller::Controller(SiteId id, std::uint32_t n_sites, Sender sender,
                       ResourceMap resource_map, DdbOptions options,
                       TimerFn timers)
    : id_(id),
      n_sites_(n_sites),
      send_(std::move(sender)),
      resource_map_(std::move(resource_map)),
      options_(options),
      timers_(std::move(timers)) {
  if ((options_.initiation == DdbInitiation::kDelayed) && !timers_) {
    throw std::invalid_argument("Controller: kDelayed requires timers");
  }
}

// ---- client API -------------------------------------------------------------

bool Controller::lock(TransactionId txn, ResourceId resource, LockMode mode) {
  if (aborted_txns_.contains(txn)) {
    // This controller already aborted txn but the client's home site has
    // not heard yet; accepting the request would recreate zombie state.
    // The abort notification is on its way; the client will retry.
    return false;
  }
  const SiteId owner = resource_map_(resource);
  if (owner == id_) {
    ++stats_.local_requests;
    const AcquireResult r = locks_.acquire(resource, txn, mode, id_);
    if (r != AcquireResult::kQueued) {
      // An in-place read->write upgrade can create fresh conflicts with
      // already-queued readers; re-arm detection for them.
      if (mode == LockMode::kWrite) {
        for (const TransactionId waiter : locks_.waiters(resource)) {
          schedule_block_check(waiter);
        }
      }
      if (on_grant_) on_grant_(txn, resource);
      return true;
    }
    schedule_block_check(txn);
    return false;
  }
  // Remote resource: forward to the owning controller.  This creates the
  // inter-controller edge ((txn, here), (txn, owner)) -- grey while the
  // request is in flight (section 6.4, G3).
  ++pending_remote_[txn][owner];
  ++stats_.remote_requests_sent;
  send_(owner, encode(RemoteLockRequestMsg{txn, resource, mode}).view());
  schedule_block_check(txn);
  return false;
}

void Controller::finish(TransactionId txn) {
  dispatch_grants(locks_.abort(txn));
  pending_remote_.erase(txn);
  remote_holdings_.erase(txn);
  own_comp_seq_.erase(txn);
  // The transaction may hold locks at any site it executed at; broadcast
  // the release (a real system would piggyback a participant list, but the
  // paper's model does not provide one).
  broadcast_purge(PurgeTxnMsg{txn, /*aborted=*/false});
}

void Controller::abort(TransactionId txn) {
  ++stats_.aborts_executed;
  aborted_txns_.insert(txn);
  dispatch_grants(locks_.abort(txn));
  pending_remote_.erase(txn);
  remote_holdings_.erase(txn);
  own_comp_seq_.erase(txn);
  if (on_abort_) on_abort_(txn);
  // The victim may hold state at any site (it can be another site's home
  // transaction caught on our cycle); broadcast the purge.
  broadcast_purge(PurgeTxnMsg{txn, /*aborted=*/true});
}

void Controller::broadcast_purge(const PurgeTxnMsg& msg) {
  const DdbFrame frame = encode(msg);  // one encoding, sent to every site
  for (std::uint32_t s = 0; s < n_sites_; ++s) {
    if (SiteId{s} == id_) continue;
    ++stats_.purges_sent;
    send_(SiteId{s}, frame.view());
  }
}

// ---- transport --------------------------------------------------------------

Status Controller::on_message(SiteId from, BytesView payload) {
  auto decoded = decode(payload);
  if (!decoded.ok()) return decoded.status();
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RemoteLockRequestMsg>) {
          handle_lock_request(from, m);
        } else if constexpr (std::is_same_v<T, RemoteLockGrantMsg>) {
          handle_grant(from, m);
        } else if constexpr (std::is_same_v<T, PurgeTxnMsg>) {
          handle_purge(from, m);
        } else if constexpr (std::is_same_v<T, DdbProbeMsg>) {
          handle_probe(from, m);
        }
      },
      *decoded);
  return Status::Ok();
}

void Controller::handle_lock_request(SiteId from,
                                     const RemoteLockRequestMsg& msg) {
  ++stats_.remote_requests_received;
  if (aborted_txns_.contains(msg.txn)) {
    // Zombie request from a transaction whose abort purge overtook it on a
    // different channel; granting it would wedge the resource forever.
    return;
  }
  // The inter-controller edge ((txn, from), (txn, here)) blackened on
  // receipt (section 6.4, G4).
  const AcquireResult r = locks_.acquire(msg.resource, msg.txn, msg.mode, from);
  if (r != AcquireResult::kQueued) {
    if (msg.mode == LockMode::kWrite) {
      // In-place upgrade may newly conflict with queued readers.
      for (const TransactionId waiter : locks_.waiters(msg.resource)) {
        schedule_block_check(waiter);
      }
    }
    // Granted at once: the edge whitens as the grant is sent (G5).
    ++stats_.grants_sent;
    send_(from, encode(RemoteLockGrantMsg{msg.txn, msg.resource}).view());
    return;
  }
  // The forwarded request is queued: agent (txn, here) is now blocked on
  // local holders, i.e. new intra edges appeared.
  schedule_block_check(msg.txn);
}

void Controller::handle_grant(SiteId from, const RemoteLockGrantMsg& msg) {
  ++stats_.grants_received;
  remote_holdings_[msg.txn].insert(from);
  const auto it = pending_remote_.find(msg.txn);
  if (it != pending_remote_.end()) {
    const auto jt = it->second.find(from);
    if (jt != it->second.end() && --jt->second == 0) it->second.erase(jt);
    if (it->second.empty()) pending_remote_.erase(it);
  }
  if (on_grant_) on_grant_(msg.txn, msg.resource);
}

void Controller::handle_purge(SiteId /*from*/, const PurgeTxnMsg& msg) {
  if (msg.aborted) aborted_txns_.insert(msg.txn);
  dispatch_grants(locks_.abort(msg.txn));
  pending_remote_.erase(msg.txn);
  remote_holdings_.erase(msg.txn);
  own_comp_seq_.erase(msg.txn);
  if (msg.aborted && on_abort_) on_abort_(msg.txn);
}

void Controller::dispatch_grants(
    const std::vector<std::pair<ResourceId, LockRequest>>& grants) {
  for (const auto& [resource, req] : grants) {
    if (req.origin == id_) {
      if (on_grant_) on_grant_(req.txn, resource);
    } else {
      ++stats_.grants_sent;
      send_(req.origin, encode(RemoteLockGrantMsg{req.txn, resource}).view());
    }
  }
  // A grant reshuffles the waits-for relation: transactions still queued on
  // a granted resource now wait on the *new* holders -- an intra-controller
  // edge created without any block event.  Re-arm detection for them, or a
  // cycle closed by this reshuffle would never be probed.
  std::set<ResourceId> touched;
  for (const auto& [resource, req] : grants) touched.insert(resource);
  for (const ResourceId resource : touched) {
    for (const TransactionId waiter : locks_.waiters(resource)) {
      schedule_block_check(waiter);
    }
  }
}

// ---- detection ----------------------------------------------------------------

bool Controller::blocked(TransactionId txn) const {
  return pending_remote_.contains(txn) || locks_.has_queued(txn);
}

std::vector<TransactionId> Controller::incoming_black_processes() const {
  std::set<TransactionId> result;
  // A queued request forwarded from another site is precisely an incoming
  // black acquisition edge (the request was received, no grant sent).
  for (const auto& [resource, req] : locks_.queued_requests()) {
    if (req.origin != id_) result.insert(req.txn);
  }
  // A blocked local process whose transaction holds resources elsewhere
  // (acquired through this controller) has incoming release-wait edges.
  for (const auto& [txn, sites] : remote_holdings_) {
    if (!sites.empty() && blocked(txn)) result.insert(txn);
  }
  return {result.begin(), result.end()};
}

std::vector<SiteId> Controller::pending_remote_sites(TransactionId txn) const {
  std::vector<SiteId> result;
  const auto it = pending_remote_.find(txn);
  if (it == pending_remote_.end()) return result;
  for (const auto& [site, count] : it->second) {
    if (count > 0) result.push_back(site);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::set<TransactionId> Controller::intra_reachable(TransactionId txn,
                                                    bool* local_cycle) const {
  // Graph search over the lock manager's per-transaction wait targets: each
  // step touches only the queues of the transaction being expanded.
  std::set<TransactionId> seen{txn};
  bool cycle = false;
  std::vector<TransactionId> frontier{txn};
  std::vector<TransactionId> targets;
  while (!frontier.empty()) {
    const TransactionId u = frontier.back();
    frontier.pop_back();
    targets.clear();
    locks_.wait_targets(u, targets);
    for (const TransactionId v : targets) {
      if (v == txn) cycle = true;
      if (seen.insert(v).second) frontier.push_back(v);
    }
  }
  if (local_cycle) *local_cycle = cycle;
  return seen;
}

std::uint64_t Controller::current_floor() {
  std::erase_if(own_comp_seq_, [&](const auto& kv) {
    return !blocked(kv.first);
  });
  std::uint64_t floor = next_sequence_ + 1;
  for (const auto& [txn, seq] : own_comp_seq_) floor = std::min(floor, seq);
  return floor;
}

std::optional<DdbProbeTag> Controller::initiate_for(TransactionId txn) {
  if (!blocked(txn)) return std::nullopt;

  bool local_cycle = false;
  const std::set<TransactionId> reachable = intra_reachable(txn, &local_cycle);
  const DdbProbeTag tag{id_, ++next_sequence_};
  if (local_cycle) {
    // Step A0: black cycle of intra-controller edges, no probes needed.
    ++stats_.local_cycle_detections;
    declare(txn, tag);
    return std::nullopt;
  }

  ++stats_.computations_initiated;
  own_comp_seq_[txn] = tag.sequence;
  Computation& comp = computations_[tag];
  comp.target = txn;
  CMH_LOG(kDebug, "ddb") << id_ << " initiates " << tag << " for " << txn;
  // The target's own release-wait edges are suppressed here for the same
  // reason as in handle_probe; cycles genuinely passing through the
  // target's holdings are entered via another transaction's intra wait.
  send_probes(tag, current_floor(), comp, reachable, txn);
  return tag;
}

std::size_t Controller::check_all() {
  std::size_t initiated = 0;
  if (options_.q_optimization) {
    // Section 6.7: a free local-cycle sweep, then Q computations -- one per
    // process with an incoming black inter-controller edge.
    detect_local_cycles();
    for (const TransactionId txn : incoming_black_processes()) {
      if (initiate_for(txn)) ++initiated;
    }
  } else {
    // Naive: one computation per blocked constituent process.
    std::set<TransactionId> blocked_txns;
    for (const auto& [txn, sites] : pending_remote_) blocked_txns.insert(txn);
    for (const auto& [w, b] : locks_.wait_edges()) blocked_txns.insert(w);
    for (const TransactionId txn : blocked_txns) {
      if (initiate_for(txn)) ++initiated;
    }
  }
  return initiated;
}

void Controller::detect_local_cycles() {
  // One declaration per cycle of intra edges: its lowest transaction.
  for (const auto& cycle : graph::cyclic_components(locks_.wait_edges())) {
    ++stats_.local_cycle_detections;
    declare(cycle.front(), DdbProbeTag{id_, ++next_sequence_});
  }
}

void Controller::send_probes(
    const DdbProbeTag& tag, std::uint64_t floor, Computation& comp,
    const std::set<TransactionId>& processes,
    std::optional<TransactionId> skip_release_wait_for) {
  for (const TransactionId txn : processes) {
    // Acquisition edges: (txn, here) awaits grants from remote controllers.
    for (const SiteId site : pending_remote_sites(txn)) {
      const InterEdge edge{AgentId{txn, id_}, AgentId{txn, site}};
      if (!comp.probes_sent.insert(edge).second) continue;
      ++stats_.probes_sent;
      CMH_LOG(kDebug, "ddb") << id_ << " probe " << tag << " acq " << edge;
      send_(site, encode(DdbProbeMsg{tag, floor, edge, false}).view());
    }
    // Release-wait edges: (txn, here) holds resources acquired on behalf of
    // (txn, origin) and follows that agent's computation.  Without these
    // the agent graph has a gap at every remote holding and transaction-
    // level cycles spanning several sites would be undetectable.
    if (skip_release_wait_for == txn) continue;
    for (const SiteId origin : locks_.holding_origins(txn)) {
      if (origin == id_) continue;
      const InterEdge edge{AgentId{txn, id_}, AgentId{txn, origin}};
      if (!comp.probes_sent.insert(edge).second) continue;
      ++stats_.probes_sent;
      CMH_LOG(kDebug, "ddb") << id_ << " probe " << tag << " rel " << edge;
      send_(origin, encode(DdbProbeMsg{tag, floor, edge, true}).view());
    }
  }
}

void Controller::handle_probe(SiteId from, const DdbProbeMsg& msg) {
  ++stats_.probes_received;

  // Stale-computation pruning (section 4.3 generalized; see messages.h).
  auto& floor = floor_seen_[msg.tag.initiator];
  if (msg.floor > floor) {
    floor = msg.floor;
    // computations_ is ordered by (initiator, sequence): the initiator's
    // computations below the new floor form one contiguous range.
    computations_.erase(
        computations_.lower_bound(DdbProbeTag{msg.tag.initiator, 0}),
        computations_.lower_bound(DdbProbeTag{msg.tag.initiator, floor}));
  }
  if (msg.tag.sequence < floor) return;

  // Meaningful iff the probe's edge exists and is black at receipt: agent
  // (txn, here) still has a queued request forwarded from the probe's
  // origin site (section 6.5).
  if (msg.edge.to.site != id_ ||
      msg.edge.from.transaction != msg.edge.to.transaction) {
    return;  // malformed or misrouted
  }
  const TransactionId txn = msg.edge.to.transaction;
  bool black = false;
  if (msg.via_release_wait) {
    // The sender holds for (txn, here); the holding persists at least as
    // long as txn is blocked here (it cannot commit while blocked, and an
    // abort's purge reaches this site too), so "blocked here" certifies the
    // edge.
    black = blocked(txn);
  } else {
    // Acquisition edge: still-queued forwarded request from the probe's
    // origin site (the paper's section-6.5 check).
    for (const auto& [resource, req] : locks_.queued_for(txn)) {
      if (req.origin == msg.edge.from.site) {
        black = true;
        break;
      }
    }
  }
  if (!black) return;
  ++stats_.meaningful_probes;
  CMH_LOG(kDebug, "ddb") << id_ << " meaningful probe " << msg.tag
                         << (msg.via_release_wait ? " rel " : " acq ")
                         << msg.edge << " from " << from;
  (void)from;

  Computation& comp = computations_[msg.tag];
  if (comp.declared) return;

  // Steps A1/A2: label (txn, here) and everything intra-reachable.
  //
  // The labels are recomputed on every receipt and never accumulated.
  // Labels from an earlier receipt may be stale -- the intra paths that
  // justified them can legally dissolve once the probe chain's pin (the
  // G2/G5 target-has-outgoing-edge argument) has moved past this site --
  // and acting on them would declare wait chains that never coexisted (a
  // false deadlock).  The per-edge probe dedup is comp.probes_sent.
  const std::set<TransactionId> fresh = intra_reachable(txn);

  if (msg.tag.initiator == id_ && comp.target &&
      fresh.contains(*comp.target)) {
    comp.declared = true;
    declare(*comp.target, msg.tag);
    return;
  }

  // Forward along every un-probed outgoing inter edge of the freshly
  // reachable set.  The initiating controller forwards too: a cycle may
  // thread through this site several times before closing on the target.
  // The entry transaction's own release-wait edges are suppressed: a probe
  // may only ride txn's release-wait after reaching txn through another
  // transaction's wait (an intra edge), otherwise it loops between txn's
  // own agents without any deadlock (acquisition and holding concern
  // different resources).
  send_probes(msg.tag, msg.floor, comp, fresh, txn);
}

void Controller::declare(TransactionId victim, const DdbProbeTag& tag) {
  ++stats_.deadlocks_declared;
  declared_.emplace_back(victim, tag);
  own_comp_seq_.erase(victim);
  CMH_LOG(kInfo, "ddb") << id_ << " declares " << victim << " deadlocked ("
                        << tag << ")";
  if (on_deadlock_) on_deadlock_(victim, tag);
  if (options_.abort_victim) abort(victim);
}

void Controller::schedule_block_check(TransactionId txn) {
  switch (options_.initiation) {
    case DdbInitiation::kManual:
      return;
    case DdbInitiation::kOnBlock:
      initiate_for(txn);
      return;
    case DdbInitiation::kDelayed:
      timers_(options_.initiation_delay, [this, txn] {
        if (blocked(txn)) initiate_for(txn);
      });
      return;
  }
}

void Controller::mix_state_hash(std::uint64_t& h) const {
  const auto mix = [&h](std::uint64_t v) { h = hash_combine(h, v); };
  const auto mix_agent = [&](const AgentId& a) {
    mix(a.transaction.value());
    mix(a.site.value());
  };
  mix(id_.value());
  locks_.mix_state_hash(h);
  mix(0xC1);  // separators between variable-length sections

  std::vector<TransactionId> aborted(aborted_txns_.begin(),
                                     aborted_txns_.end());
  std::sort(aborted.begin(), aborted.end());
  for (const TransactionId t : aborted) mix(t.value());
  mix(0xC2);

  std::vector<TransactionId> txns;
  for (const auto& [txn, sites] : pending_remote_) {
    if (!sites.empty()) txns.push_back(txn);
  }
  std::sort(txns.begin(), txns.end());
  for (const TransactionId t : txns) {
    mix(t.value());
    std::vector<std::pair<SiteId, std::uint32_t>> sites(
        pending_remote_.at(t).begin(), pending_remote_.at(t).end());
    std::sort(sites.begin(), sites.end());
    for (const auto& [site, count] : sites) {
      mix(site.value());
      mix(count);
    }
  }
  mix(0xC3);

  txns.clear();
  for (const auto& [txn, sites] : remote_holdings_) {
    if (!sites.empty()) txns.push_back(txn);
  }
  std::sort(txns.begin(), txns.end());
  for (const TransactionId t : txns) {
    mix(t.value());
    for (const SiteId site : remote_holdings_.at(t)) mix(site.value());
  }
  mix(0xC4);

  mix(next_sequence_);
  std::vector<std::pair<TransactionId, std::uint64_t>> own(
      own_comp_seq_.begin(), own_comp_seq_.end());
  std::sort(own.begin(), own.end());
  for (const auto& [txn, seq] : own) {
    mix(txn.value());
    mix(seq);
  }
  mix(0xC5);

  for (const auto& [tag, comp] : computations_) {
    mix(tag.initiator.value());
    mix(tag.sequence);
    for (const InterEdge& e : comp.probes_sent) {
      mix_agent(e.from);
      mix_agent(e.to);
    }
    mix(comp.target ? comp.target->value() + 1 : 0);
    mix(static_cast<std::uint64_t>(comp.declared));
  }
  mix(0xC7);

  std::vector<std::pair<SiteId, std::uint64_t>> floors(floor_seen_.begin(),
                                                       floor_seen_.end());
  std::sort(floors.begin(), floors.end());
  for (const auto& [site, floor] : floors) {
    mix(site.value());
    mix(floor);
  }
  mix(0xC8);

  for (const auto& [victim, tag] : declared_) {
    mix(victim.value());
    mix(tag.initiator.value());
    mix(tag.sequence);
  }
}

}  // namespace cmh::ddb
