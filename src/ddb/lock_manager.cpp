#include "ddb/lock_manager.h"

#include <algorithm>
#include <utility>

namespace cmh::ddb {

const LockManager::Holder* LockManager::ResourceState::holder(
    TransactionId txn) const {
  const auto it = std::find_if(holders.begin(), holders.end(),
                               [&](const Holder& h) { return h.txn == txn; });
  return it == holders.end() ? nullptr : it;
}

LockManager::Holder* LockManager::ResourceState::holder(TransactionId txn) {
  return const_cast<Holder*>(std::as_const(*this).holder(txn));
}

bool LockManager::ResourceState::erase_holder(TransactionId txn) {
  return holders.erase_if([&](const Holder& h) { return h.txn == txn; }) > 0;
}

bool LockManager::grantable(const ResourceState& rs, const LockRequest& req,
                            std::size_t pos) {
  for (const auto& [holder, holding] : rs.holders) {
    if (holder == req.txn) continue;  // self-held (upgrade) never self-blocks
    if (conflicts(holding.mode, req.mode)) return false;
  }
  for (std::size_t i = 0; i < pos && i < rs.queue.size(); ++i) {
    const LockRequest& ahead = rs.queue[i];
    if (ahead.txn == req.txn) continue;
    if (conflicts(ahead.mode, req.mode)) return false;
  }
  return true;
}

AcquireResult LockManager::acquire(ResourceId resource, TransactionId txn,
                                   LockMode mode, SiteId origin) {
  ResourceState& rs = resources_[resource];

  if (Holder* held = rs.holder(txn)) {
    if (held->holding.mode == LockMode::kWrite || mode == LockMode::kRead) {
      return AcquireResult::kRedundant;
    }
    // Upgrade read -> write: in place iff sole holder.  The original
    // acquisition's origin is kept.
    if (rs.holders.size() == 1) {
      held->holding.mode = LockMode::kWrite;
      return AcquireResult::kGranted;
    }
    rs.queue.push_back(LockRequest{txn, mode, origin});
    by_txn_[txn].queued.insert(resource);
    return AcquireResult::kQueued;
  }

  const LockRequest req{txn, mode, origin};
  if (grantable(rs, req, rs.queue.size())) {
    rs.holders.push_back(Holder{txn, Holding{mode, origin}});
    by_txn_[txn].held.insert(resource);
    return AcquireResult::kGranted;
  }
  rs.queue.push_back(req);
  by_txn_[txn].queued.insert(resource);
  return AcquireResult::kQueued;
}

std::vector<LockRequest> LockManager::grant_eligible(ResourceId resource,
                                                     ResourceState& rs) {
  std::vector<LockRequest> granted;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < rs.queue.size(); ++i) {
      const LockRequest req = rs.queue[i];
      if (!grantable(rs, req, i)) continue;
      rs.queue.erase(rs.queue.begin() + i);
      if (Holder* held = rs.holder(req.txn)) {
        // A queued upgrade completes.
        if (req.mode == LockMode::kWrite) held->holding.mode = LockMode::kWrite;
      } else {
        rs.holders.push_back(Holder{req.txn, Holding{req.mode, req.origin}});
      }
      // The entry stays non-empty: req.txn now holds `resource`.
      TxnIndex& index = by_txn_[req.txn];
      index.held.insert(resource);
      if (std::none_of(rs.queue.begin(), rs.queue.end(),
                       [&](const LockRequest& r) { return r.txn == req.txn; })) {
        index.queued.erase(resource);
      }
      granted.push_back(req);
      progressed = true;
      break;  // holders changed; rescan from the front
    }
  }
  return granted;
}

std::vector<LockRequest> LockManager::release(ResourceId resource,
                                              TransactionId txn) {
  const auto it = resources_.find(resource);
  if (it == resources_.end()) return {};
  ResourceState& rs = it->second;
  if (!rs.erase_holder(txn)) return {};
  const auto index = by_txn_.find(txn);
  if (index != by_txn_.end()) {
    index->second.held.erase(resource);
    if (index->second.held.empty() && index->second.queued.empty()) {
      by_txn_.erase(index);
    }
  }
  auto granted = grant_eligible(resource, rs);
  if (rs.holders.empty() && rs.queue.empty()) resources_.erase(it);
  return granted;
}

std::vector<std::pair<ResourceId, LockRequest>> LockManager::abort(
    TransactionId txn) {
  // Nothing held or queued: no resource changes (resources_ holds no empty
  // entries), so the walk below would be a no-op.
  if (by_txn_.erase(txn) == 0) return {};
  std::vector<std::pair<ResourceId, LockRequest>> granted;
  std::vector<ResourceId> empty;
  // Walk every resource rather than txn's index: the walk order is the
  // order of the returned grants, which callers turn into messages.
  for (auto& [resource, rs] : resources_) {
    const bool held = rs.erase_holder(txn);
    const bool queued = rs.queue.erase_if([&](const LockRequest& r) {
                          return r.txn == txn;
                        }) > 0;
    if (held || queued) {
      for (LockRequest& g : grant_eligible(resource, rs)) {
        granted.emplace_back(resource, std::move(g));
      }
    }
    if (rs.holders.empty() && rs.queue.empty()) empty.push_back(resource);
  }
  for (const ResourceId r : empty) resources_.erase(r);
  return granted;
}

bool LockManager::holds(ResourceId resource, TransactionId txn) const {
  const auto it = resources_.find(resource);
  return it != resources_.end() && it->second.holder(txn) != nullptr;
}

std::optional<LockMode> LockManager::held_mode(ResourceId resource,
                                               TransactionId txn) const {
  const auto it = resources_.find(resource);
  if (it == resources_.end()) return std::nullopt;
  const Holder* held = it->second.holder(txn);
  if (held == nullptr) return std::nullopt;
  return held->holding.mode;
}

bool LockManager::waiting(ResourceId resource, TransactionId txn) const {
  const auto it = resources_.find(resource);
  if (it == resources_.end()) return false;
  return std::any_of(it->second.queue.begin(), it->second.queue.end(),
                     [&](const LockRequest& r) { return r.txn == txn; });
}

std::vector<ResourceId> LockManager::held_by(TransactionId txn) const {
  const auto it = by_txn_.find(txn);
  if (it == by_txn_.end()) return {};
  return {it->second.held.begin(), it->second.held.end()};
}

bool LockManager::has_queued(TransactionId txn) const {
  const auto it = by_txn_.find(txn);
  return it != by_txn_.end() && !it->second.queued.empty();
}

namespace {
/// Calls fn(blocker) for every transaction the request at queue position
/// `pos` waits for: conflicting holders and conflicting earlier requests.
template <typename State, typename Fn>
void for_each_blocker(const State& rs, std::size_t pos, Fn&& fn) {
  const LockRequest& w = rs.queue[pos];
  for (const auto& [holder, holding] : rs.holders) {
    if (holder != w.txn && conflicts(holding.mode, w.mode)) fn(holder);
  }
  for (std::size_t j = 0; j < pos; ++j) {
    const LockRequest& ahead = rs.queue[j];
    if (ahead.txn != w.txn && conflicts(ahead.mode, w.mode)) fn(ahead.txn);
  }
}
}  // namespace

template <typename Fn>
void LockManager::for_each_queued(TransactionId txn, Fn&& fn) const {
  const auto it = by_txn_.find(txn);
  if (it == by_txn_.end()) return;
  for (const ResourceId r : it->second.queued) {
    const ResourceState& rs = resources_.at(r);
    for (std::size_t i = 0; i < rs.queue.size(); ++i) {
      if (rs.queue[i].txn == txn) fn(r, rs, i);
    }
  }
}

void LockManager::wait_targets(TransactionId txn,
                               std::vector<TransactionId>& out) const {
  for_each_queued(txn, [&](ResourceId, const ResourceState& rs,
                           std::size_t pos) {
    for_each_blocker(rs, pos, [&](TransactionId b) { out.push_back(b); });
  });
}

std::vector<std::pair<TransactionId, TransactionId>> LockManager::wait_edges()
    const {
  std::vector<std::pair<TransactionId, TransactionId>> edges;
  for (const auto& [resource, rs] : resources_) {
    for (std::size_t i = 0; i < rs.queue.size(); ++i) {
      const TransactionId waiter = rs.queue[i].txn;
      for_each_blocker(rs, i, [&](TransactionId b) {
        edges.emplace_back(waiter, b);
      });
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

void LockManager::holding_origins(TransactionId txn,
                                  std::vector<SiteId>& out) const {
  out.clear();
  const auto it = by_txn_.find(txn);
  if (it == by_txn_.end()) return;
  for (const ResourceId r : it->second.held) {
    out.push_back(resources_.at(r).holder(txn)->holding.origin);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

bool LockManager::queued_from(TransactionId txn, SiteId origin) const {
  bool found = false;
  for_each_queued(txn, [&](ResourceId, const ResourceState& rs,
                           std::size_t pos) {
    found = found || rs.queue[pos].origin == origin;
  });
  return found;
}

std::vector<std::pair<ResourceId, LockRequest>> LockManager::queued_requests()
    const {
  std::vector<std::pair<ResourceId, LockRequest>> result;
  for (const auto& [resource, rs] : resources_) {
    for (const LockRequest& r : rs.queue) result.emplace_back(resource, r);
  }
  return result;
}

std::size_t LockManager::queue_depth(ResourceId resource) const {
  const auto it = resources_.find(resource);
  return it == resources_.end() ? 0 : it->second.queue.size();
}

std::vector<TransactionId> LockManager::blockers(ResourceId resource,
                                                 TransactionId txn,
                                                 LockMode mode) const {
  FlatSet<TransactionId, 8> result;
  const auto it = resources_.find(resource);
  if (it == resources_.end()) return {};
  for (const auto& [holder, holding] : it->second.holders) {
    if (holder != txn && conflicts(holding.mode, mode)) result.insert(holder);
  }
  for (const LockRequest& r : it->second.queue) {
    if (r.txn != txn && conflicts(r.mode, mode)) result.insert(r.txn);
  }
  return {result.begin(), result.end()};
}

std::vector<TransactionId> LockManager::waiters(ResourceId resource) const {
  std::vector<TransactionId> result;
  const auto it = resources_.find(resource);
  if (it == resources_.end()) return result;
  result.reserve(it->second.queue.size());
  for (const LockRequest& r : it->second.queue) result.push_back(r.txn);
  return result;
}

void LockManager::mix_state_hash(std::uint64_t& h) const {
  const auto mix = [&h](std::uint64_t v) { h = hash_combine(h, v); };
  std::vector<ResourceId> ids;
  ids.reserve(resources_.size());
  for (const auto& [id, rs] : resources_) {
    // Empty entries (everything released) are behaviorally identical to
    // absent ones; skip them so equivalent states hash equal.
    if (!rs.holders.empty() || !rs.queue.empty()) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const ResourceId id : ids) {
    const ResourceState& rs = resources_.at(id);
    mix(id.value());
    std::vector<Holder> holders(rs.holders.begin(), rs.holders.end());
    std::sort(holders.begin(), holders.end(),
              [](const Holder& a, const Holder& b) { return a.txn < b.txn; });
    for (const auto& [txn, holding] : holders) {
      mix(txn.value());
      mix(static_cast<std::uint64_t>(holding.mode));
      mix(holding.origin.value());
    }
    mix(0xD1);  // holders/queue separator
    for (const LockRequest& r : rs.queue) {
      mix(r.txn.value());
      mix(static_cast<std::uint64_t>(r.mode));
      mix(r.origin.value());
    }
    mix(0xD2);
  }
}

}  // namespace cmh::ddb
