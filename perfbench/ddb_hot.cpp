// ddb_hot: one long-lived 8-site ddb::Cluster runs rounds of concurrent
// closed-loop clients over a contended hot set (kDelayed initiation with
// T = 2 ms, victims aborted and retried).  The work is the ddb controller
// and lock manager plus sim timers; because the cluster lives across
// rounds, controller state that grows over a run shows as rounds slowing
// down (ddb.round_wall_growth).
//
// The clients follow TxnWorkload's script (distinct resources in random
// order, one lock at a time, hold, commit; retry after backoff on abort),
// but are driven from here so that every Cluster::lock/finish call and
// every lock wait can be timed without touching src/.
//
// End-to-end: ops = commits per wall second (median over rounds); op
// latency = virtual time from a client's due time to its commit, retries
// included; detect latency = virtual time from the victim's blocking lock
// request to the declaration; msgs_per_op = sim messages per commit.
#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "bench.h"
#include "common/rng.h"
#include "ddb/cluster.h"
#include "ddb/workload.h"

namespace cmh::perfbench {
namespace {

using ddb::LockMode;
using ddb::TxnStatus;

constexpr std::uint32_t kSites = 8;
constexpr std::uint32_t kClientsPerRound = 300;
constexpr int kSetups = 5;

// TxnWorkload's defaults, except a 256-resource hot set (128 made ~1.7
// aborts per commit) and a retry limit of 100: with TxnWorkload's 10, about
// one client in 70,000 exhausted its retries (1-3 per 25 s run on 6 of 10
// seeds).  The starvation behind that stays visible in ddb.aborts_per_commit,
// in the commit latency tail and in the "worst_client_aborts" note; a client
// that still gives up fails the run.
ddb::TxnScriptConfig script_config() {
  ddb::TxnScriptConfig cfg;
  cfg.locks_per_txn = 3;
  cfg.write_fraction = 0.5;
  cfg.hold_time = SimTime::ms(2);
  cfg.retry_backoff = SimTime::ms(1);
  cfg.max_retries = 100;
  cfg.hot_set = 256;
  return cfg;
}

ddb::ClusterConfig cluster_config(std::uint64_t seed) {
  return ddb::ClusterConfig{
      .n_sites = kSites,
      .n_resources = script_config().hot_set,
      .options = ddb::DdbOptions{.initiation = ddb::DdbInitiation::kDelayed,
                                 .initiation_delay = SimTime::ms(2),
                                 .q_optimization = true,
                                 .abort_victim = true},
      .seed = seed,
      .delays = {}};
}

/// Closed-loop client population driving one Cluster through its public
/// API, with the sample collection the metrics need.  Registers itself as
/// the cluster's grant, abort and detection listener.
class Clients {
 public:
  Clients(ddb::Cluster& cluster, std::uint64_t seed, bool traced)
      : cluster_(cluster), cfg_(script_config()), rng_(seed), traced_(traced) {
    cluster_.set_grant_listener(
        [this](TransactionId txn, ResourceId r) { on_grant(txn, r); });
    cluster_.set_abort_listener([this](TransactionId txn) { on_abort(txn); });
    cluster_.set_detection_listener(
        [this](const ddb::DdbDetection& d) { on_detection(d); });
  }

  struct Round {
    std::uint64_t launched{0};
    std::uint64_t committed{0};
    std::uint64_t given_up{0};
    std::uint64_t stuck{0};
    double wall_s{0};
    bool oracle_clean{true};
  };

  /// Launches one round of clients and runs the simulator to idle.
  Round run_round() {
    clients_.clear();
    by_txn_.clear();
    round_ = Round{.launched = kClientsPerRound};
    const std::int64_t t0 = now_ns();
    const SimTime start = sim().now();
    for (std::uint32_t i = 0; i < kClientsPerRound; ++i) {
      Client c;
      c.home = SiteId{static_cast<std::uint32_t>(rng_.below(kSites))};
      std::set<std::uint32_t> picked;
      while (picked.size() < cfg_.locks_per_txn) {
        picked.insert(static_cast<std::uint32_t>(rng_.below(cfg_.hot_set)));
      }
      for (const std::uint32_t r : picked) {
        c.plan.emplace_back(ResourceId{r}, rng_.chance(cfg_.write_fraction)
                                               ? LockMode::kWrite
                                               : LockMode::kRead);
      }
      for (std::size_t k = c.plan.size(); k > 1; --k) {
        std::swap(c.plan[k - 1], c.plan[rng_.below(k)]);
      }
      const auto stagger = SimTime::us(static_cast<std::int64_t>(
          rng_.below(1 + static_cast<std::uint64_t>(cfg_.hold_time.micros))));
      c.due = start + stagger;
      clients_.push_back(std::move(c));
      sim().schedule(stagger, [this, i] { launch(i); });
    }
    const std::int64_t r0 = now_ns();
    sim().run();
    busy_ns += now_ns() - r0;
    round_.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    for (const Client& c : clients_) {
      if (c.txn && cluster_.status(*c.txn) == TxnStatus::kActive) {
        ++round_.stuck;
      }
    }
    round_.oracle_clean = cluster_.oracle_deadlocked().empty();
    open_.clear();  // declarations whose held resources nobody wanted
    return round_;
  }

  // Samples, in virtual microseconds, and counters since construction.
  std::vector<double> commit_us, lock_wait_us, detect_us, resolve_us;
  std::uint64_t aborts{0};
  std::uint32_t worst_client_aborts{0};
  std::int64_t busy_ns{0};  // wall time inside Simulator::run()
  TimeAcc client_calls;     // Cluster::lock/finish, traced runs only

 private:
  struct Client {
    SiteId home;
    std::vector<std::pair<ResourceId, LockMode>> plan;
    std::uint32_t next_lock{0};
    std::uint32_t retries{0};
    std::optional<TransactionId> txn;
    bool stepping{false};
    SimTime due{};
  };
  struct Pending {
    ResourceId resource;
    SimTime since;
  };
  struct OpenDeclaration {
    TransactionId victim;
    SimTime at;
  };

  [[nodiscard]] sim::Simulator& sim() { return cluster_.simulator(); }

  [[nodiscard]] double us_since(SimTime t) {
    return static_cast<double>((sim().now() - t).micros);
  }

  void launch(std::size_t i) {
    Client& c = clients_[i];
    c.txn = cluster_.begin(c.home);
    by_txn_[*c.txn] = i;
    c.next_lock = 0;
    step(i);
  }

  template <typename F>
  void client_call(F&& f) {
    if (!traced_) return f();
    const std::int64_t t0 = now_ns();
    f();
    client_calls.add(now_ns() - t0);
  }

  void step(std::size_t i) {
    Client& c = clients_[i];
    if (!c.txn || cluster_.status(*c.txn) != TxnStatus::kActive) return;
    if (c.stepping) return;  // synchronous grant re-entered via the listener
    c.stepping = true;
    while (c.next_lock < c.plan.size()) {
      const auto [resource, mode] = c.plan[c.next_lock];
      ++c.next_lock;
      const TransactionId txn = *c.txn;
      if (cluster_.granted(txn, resource)) continue;
      pending_[txn] = Pending{resource, sim().now()};
      client_call([&] { cluster_.lock(txn, resource, mode); });
      // The call can grant synchronously, or declare and abort us.
      if (c.txn != txn || cluster_.status(txn) != TxnStatus::kActive ||
          !cluster_.granted(txn, resource)) {
        c.stepping = false;
        return;  // a grant (or the abort retry path) resumes us
      }
    }
    c.stepping = false;
    const TransactionId txn = *c.txn;
    sim().schedule(cfg_.hold_time, [this, i, txn] {
      Client& cl = clients_[i];
      if (cl.txn != txn || cluster_.status(txn) != TxnStatus::kActive) return;
      client_call([&] { cluster_.finish(txn); });
      held_.erase(txn);
      ++round_.committed;
      commit_us.push_back(us_since(cl.due));
      cl.txn.reset();
    });
  }

  void on_grant(TransactionId txn, ResourceId r) {
    held_[txn].insert(r);
    const auto p = pending_.find(txn);
    if (p != pending_.end() && p->second.resource == r) {
      lock_wait_us.push_back(us_since(p->second.since));
      pending_.erase(p);
    }
    // Resolution: the first grant, to another transaction, of a resource a
    // declared victim held.
    const auto o = open_.find(r);
    if (o != open_.end()) {
      std::erase_if(o->second, [&](const OpenDeclaration& d) {
        if (d.victim == txn) return false;
        resolve_us.push_back(us_since(d.at));
        return true;
      });
    }
    const auto c = by_txn_.find(txn);
    if (c != by_txn_.end()) step(c->second);
  }

  void on_abort(TransactionId txn) {
    ++aborts;
    held_.erase(txn);
    const auto p = pending_.find(txn);
    if (p != pending_.end()) {
      lock_wait_us.push_back(us_since(p->second.since));
      pending_.erase(p);
    }
    const auto it = by_txn_.find(txn);
    if (it == by_txn_.end()) return;
    const std::size_t i = it->second;
    Client& c = clients_[i];
    if (c.txn != txn) return;
    c.txn.reset();
    c.next_lock = 0;
    worst_client_aborts = std::max(worst_client_aborts, c.retries + 1);
    if (++c.retries > cfg_.max_retries) {
      ++round_.given_up;
      return;
    }
    sim().schedule(cfg_.retry_backoff, [this, i] { launch(i); });
  }

  void on_detection(const ddb::DdbDetection& d) {
    const auto p = pending_.find(d.victim);
    if (p != pending_.end()) {
      detect_us.push_back(static_cast<double>((d.at - p->second.since).micros));
    }
    const auto h = held_.find(d.victim);
    if (h == held_.end()) return;
    for (const ResourceId r : h->second) open_[r].push_back({d.victim, d.at});
  }

  ddb::Cluster& cluster_;
  ddb::TxnScriptConfig cfg_;
  Rng rng_;
  bool traced_;
  std::vector<Client> clients_;
  std::unordered_map<TransactionId, std::size_t> by_txn_;
  std::unordered_map<TransactionId, Pending> pending_;
  std::unordered_map<TransactionId, std::set<ResourceId>> held_;
  std::unordered_map<ResourceId, std::vector<OpenDeclaration>> open_;
  Round round_;
};

/// Re-registers each site's simulator handler as a timing wrapper around
/// the controller's on_message -- the same call Cluster registers.
void wrap_handlers(ddb::Cluster& cluster, TimeAcc& acc) {
  for (std::uint32_t i = 0; i < kSites; ++i) {
    ddb::Controller* ctrl = &cluster.controller(SiteId{i});
    cluster.simulator().set_handler(
        i, [ctrl, &acc](sim::NodeId from, const Bytes& payload) {
          const std::int64_t t0 = now_ns();
          const auto st = ctrl->on_message(SiteId{from}, payload);
          acc.add(now_ns() - t0);
          if (!st.ok()) {
            throw std::logic_error("ddb: bad frame: " + st.to_string());
          }
        });
  }
}

void check_round(const Clients::Round& r, Report& rep) {
  rep.attempted += r.launched;
  rep.failed += r.given_up + r.stuck;
  if (!r.oracle_clean) rep.fail("deadlock left at idle (oracle_deadlocked)");
  if (r.committed + r.given_up != r.launched) {
    rep.fail("committed + given up != launched (" +
             std::to_string(r.committed) + " + " +
             std::to_string(r.given_up) + " != " +
             std::to_string(r.launched) + ")");
  }
  if (r.given_up + r.stuck > 0) {
    rep.fail(std::to_string(r.given_up) + " given up, " +
             std::to_string(r.stuck) + " blocked at idle");
  }
}

double median_of(const std::vector<double>& v, std::size_t from,
                 std::size_t to) {
  const auto it = [&](std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  return median(std::vector<double>(it(from), it(to)));
}

}  // namespace

Report run_ddb_hot(const Args& args, double seconds, bool traced) {
  Report rep;
  Rng seeds(args.seed);

  // Set-up: build the cluster and run one warm-up round.  Repeated; the
  // last cluster is kept and lives through every measured round.
  std::unique_ptr<ddb::Cluster> cluster;
  std::unique_ptr<Clients> clients;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    clients.reset();
    cluster.reset();
    release_freed_memory();
    cluster = std::make_unique<ddb::Cluster>(cluster_config(seeds()));
    clients = std::make_unique<Clients>(*cluster, seeds(), traced);
    check_round(clients->run_round(), rep);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  TimeAcc handler;
  if (traced) wrap_handlers(*cluster, handler);
  const double threads = thread_count();
  const double rss_mb = peak_rss_mb();

  // Fresh samples for the measured rounds; the cluster keeps its history.
  clients = std::make_unique<Clients>(*cluster, seeds(), traced);
  cluster->simulator().reset_stats();
  const ddb::ControllerStats before = cluster->total_stats();
  std::vector<double> rates, walls;
  std::uint64_t commits = 0;
  const double cpu0 = cpu_seconds();
  const std::int64_t deadline = deadline_after(seconds);
  do {
    const Clients::Round r = clients->run_round();
    check_round(r, rep);
    commits += r.committed;
    walls.push_back(r.wall_s);
    rates.push_back(ratio(r.committed, r.wall_s));
  } while (now_ns() < deadline);
  const double cpu_s = cpu_seconds() - cpu0;

  const sim::SimStats& st = cluster->simulator().stats();
  const ddb::ControllerStats after = cluster->total_stats();
  const auto delta = [&](std::uint64_t ddb::ControllerStats::*f) {
    return after.*f - before.*f;
  };
  const auto declared = delta(&ddb::ControllerStats::deadlocks_declared);
  const Clients& c = *clients;

  rep.e2e["setup_s"] = median(setups);
  rep.e2e["peak_rss_mb"] = rss_mb;
  rep.e2e["ops_per_s"] = median(rates);
  rep.e2e["cpu_us_per_op"] = ratio(cpu_s * 1e6, commits);
  rep.e2e["op_p50_us"] = percentile(c.commit_us, 0.5);
  rep.e2e["detect_p50_us"] = percentile(c.detect_us, 0.5);
  rep.e2e["msgs_per_op"] = ratio(st.messages_sent, commits);
  rep.layer["tail.op_p90_us"] = percentile(c.commit_us, 0.9);
  rep.layer["tail.detect_p90_us"] = percentile(c.detect_us, 0.9);
  rep.cost = ratio(1, rep.e2e["ops_per_s"]);
  rep.notes.emplace_back("rounds", static_cast<double>(rates.size()));
  rep.notes.emplace_back("commits", static_cast<double>(commits));
  rep.notes.emplace_back("worst_client_aborts", c.worst_client_aborts);

  const auto busy_ns = static_cast<double>(c.busy_ns);
  const std::size_t k = std::min<std::size_t>(3, walls.size());
  rep.layer["sim.events"] = static_cast<double>(st.events_processed);
  rep.layer["sim.timers_fired"] = static_cast<double>(st.timers_fired);
  rep.layer["sim.messages"] = static_cast<double>(st.messages_sent);
  rep.layer["sim.busy_s"] = busy_ns / 1e9;
  rep.layer["sim.ns_per_event"] = ratio(busy_ns, st.events_processed);
  if (traced) {
    rep.layer["sim.handler_share"] = ratio(handler.ns, busy_ns);
    rep.layer["ddb.client_call_ns"] = c.client_calls.mean_ns();
  }
  rep.layer["ddb.probes_per_declaration"] =
      ratio(delta(&ddb::ControllerStats::probes_sent), declared);
  rep.layer["ddb.declarations_per_computation"] =
      ratio(declared, delta(&ddb::ControllerStats::computations_initiated));
  rep.layer["ddb.local_cycle_share"] =
      ratio(delta(&ddb::ControllerStats::local_cycle_detections), declared);
  rep.layer["ddb.aborts_per_declaration"] = ratio(c.aborts, declared);
  rep.layer["ddb.purges_per_commit"] =
      ratio(delta(&ddb::ControllerStats::purges_sent), commits);
  rep.layer["ddb.round_wall_growth"] =
      ratio(median_of(walls, walls.size() - k, walls.size()),
            median_of(walls, 0, k));
  rep.layer["ddb.aborts_per_commit"] = ratio(c.aborts, commits);
  rep.layer["ddb.lock_wait_p50_ms"] = percentile(c.lock_wait_us, 0.5) / 1e3;
  rep.layer["ddb.lock_wait_p99_ms"] = percentile(c.lock_wait_us, 0.99) / 1e3;
  rep.layer["ddb.resolve_p99_ms"] = percentile(c.resolve_us, 0.99) / 1e3;
  rep.layer["runtime.threads"] = threads;
  return rep;
}

}  // namespace cmh::perfbench
