#include "check/ddb_system.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cmh::check {

DdbSystem::DdbSystem(DdbScenario scenario) : scenario_(std::move(scenario)) {
  if (scenario_.scripts.size() > scenario_.n_sites) {
    throw std::invalid_argument("DdbSystem: more scripts than sites");
  }
  scenario_.scripts.resize(scenario_.n_sites);
  if (scenario_.options.initiation == ddb::DdbInitiation::kDelayed) {
    throw std::invalid_argument(
        "DdbSystem: kDelayed needs timers; exploration is timer-free (use "
        "kOnBlock or kManual)");
  }
  // reset() opens the transactions in id order through Database::begin():
  // ids must be 0..k-1, each issued by exactly one site's script.
  std::map<TransactionId, SiteId> homes;
  for (std::uint32_t s = 0; s < scenario_.n_sites; ++s) {
    for (const DdbOp& op : scenario_.scripts[s]) {
      if (homes.emplace(op.txn, SiteId{s}).first->second != SiteId{s}) {
        throw std::invalid_argument("DdbSystem: " + op.txn.to_string() +
                                    " appears in two sites' scripts");
      }
    }
  }
  for (const auto& [txn, home] : homes) {
    if (txn.value() != txn_home_.size()) {
      throw std::invalid_argument(
          "DdbSystem: transaction ids must be dense from 0");
    }
    txn_home_.push_back(home);
  }
  reset();
}

void DdbSystem::reset() {
  channels_.clear();
  script_pos_.assign(scenario_.n_sites, 0);
  steps_ = 0;
  event_seq_ = 0;
  declared_.clear();
  violations_.clear();
  db_ = std::make_unique<ddb::Database>(
      scenario_.n_sites, scenario_.options,
      [this](SiteId site) -> ddb::Controller::Sender {
        return [this, site](SiteId to, BytesView payload) {
          ++event_seq_;
          channels_[{site, to}].emplace_back(payload.begin(), payload.end());
        };
      },
      [](SimTime, std::function<void()>) {
        throw std::logic_error(
            "DdbSystem: a controller scheduled a timer in a timer-free "
            "exploration");
      },
      [this] { return now(); },
      [this](ResourceId r) { return scenario_.resource_owner.at(r.value()); });
  db_->set_detection_listener([this](const ddb::DdbDetection& d) {
    declared_.insert(d.victim);
    const auto oracle = db_->oracle_deadlocked();
    if (!std::binary_search(oracle.begin(), oracle.end(), d.victim)) {
      record(Axiom::kQRP2, d.victim,
             "controller declared " + d.victim.to_string() +
                 " deadlocked, but the transaction-wait oracle has it on no "
                 "cycle (false deadlock)");
    }
  });
  for (const SiteId home : txn_home_) db_->begin(home);
}

void DdbSystem::record(Axiom axiom, TransactionId txn, std::string detail) {
  // Channel endpoints are meaningless for transaction-level findings; stash
  // the transaction id in both slots of the shared Violation shape.
  violations_.push_back(Violation{axiom, event_seq_,
                                  ProcessId{txn.value()},
                                  ProcessId{txn.value()}, now(),
                                  std::move(detail)});
}

bool DdbSystem::script_op_enabled(std::uint32_t s) const {
  const auto& script = scenario_.scripts[s];
  if (script_pos_[s] >= script.size()) return false;
  const TransactionId txn = script[script_pos_[s]].txn;
  // The transaction's agent acts sequentially: no new step while a lock of
  // its is outstanding or after it finished, and none ever again once it
  // was declared deadlocked (a deadlocked agent never proceeds).
  return db_->status(txn) == ddb::TxnStatus::kActive &&
         db_->all_granted(txn) && !declared_.contains(txn);
}

std::vector<Transition> DdbSystem::enabled() {
  std::vector<Transition> ts;
  for (const auto& [key, ch] : channels_) {
    if (!ch.empty()) {
      ts.push_back(Transition{Transition::Kind::kDeliver, key.first.value(),
                              key.second.value()});
    }
  }
  for (std::uint32_t s = 0; s < scenario_.n_sites; ++s) {
    if (script_op_enabled(s)) {
      ts.push_back(Transition{Transition::Kind::kScript, s, s});
    }
  }
  return ts;
}

void DdbSystem::execute(const Transition& t) {
  ++steps_;
  ++event_seq_;
  if (t.kind == Transition::Kind::kDeliver) {
    const SiteId from{t.a};
    const SiteId to{t.b};
    auto& ch = channels_.at({from, to});
    const Bytes frame = std::move(ch.front());
    ch.pop_front();
    const auto st = db_->controller(to).on_message(from, frame);
    if (!st.ok()) {
      throw std::logic_error("DdbSystem: on_message: " + st.to_string());
    }
    return;
  }
  const DdbOp& op = scenario_.scripts[t.a][script_pos_[t.a]++];
  if (op.kind == DdbOp::Kind::kLock) {
    db_->lock(op.txn, op.resource, op.mode);
  } else {
    db_->finish(op.txn);
  }
}

std::uint64_t DdbSystem::fingerprint() {
  std::uint64_t h = 0x13198A2E03707344ULL;  // pi again, distinct seed
  const auto mix = [&h](std::uint64_t v) { h = hash_combine(h, v); };
  for (const std::size_t pos : script_pos_) mix(pos);
  db_->mix_state_hash(h);
  for (const auto& [key, ch] : channels_) {
    if (ch.empty()) continue;
    mix(key.first.value());
    mix(key.second.value());
    for (const Bytes& frame : ch) {
      for (const std::uint8_t byte : frame) mix(byte);
      mix(0xF1);
    }
    mix(0xF2);
  }
  mix(0xF4);
  for (const TransactionId t : declared_) mix(t.value());
  return h;
}

void DdbSystem::check_final() {
  // Quiescence (leaves have empty channels by construction): some
  // deadlocked transaction must have been declared.  The paper guarantees
  // one declaration per cycle -- the computation of the *last* process to
  // close it -- not one per member: a transaction that blocked early
  // initiates before the cycle exists and that computation legitimately
  // dies.  The canonical scenarios hold a single cycle, so "some declared"
  // is exactly the per-cycle guarantee there.
  const auto oracle = db_->oracle_deadlocked();
  if (oracle.empty()) return;
  for (const TransactionId t : oracle) {
    if (declared_.contains(t)) return;
  }
  record(Axiom::kQRP1, oracle.front(),
         std::to_string(oracle.size()) +
             " transaction(s) are deadlocked per the transaction-wait oracle "
             "but no controller declared any of them (missed deadlock)");
}

std::string DdbSystem::describe(const Transition& t) const {
  if (t.kind == Transition::Kind::kDeliver) {
    return "deliver " + SiteId{t.a}.to_string() + "->" +
           SiteId{t.b}.to_string();
  }
  // Pre-state call (see explore.cpp): script_pos_ names the op about to run.
  const std::size_t pos = script_pos_[t.a];
  const auto& script = scenario_.scripts[t.a];
  std::string prefix = "script " + SiteId{t.a}.to_string();
  if (pos >= script.size()) return prefix;
  const DdbOp& op = script[pos];
  std::ostringstream os;
  os << prefix << ' ';
  if (op.kind == DdbOp::Kind::kLock) {
    os << "lock " << op.txn << ' ' << op.resource << ' '
       << ddb::to_string(op.mode);
  } else {
    os << "finish " << op.txn;
  }
  return os.str();
}

}  // namespace cmh::check
