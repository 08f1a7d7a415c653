// DDB-model harness for the exhaustive interleaving checker.
//
// Hosts the same ddb::Database that ddb::Cluster runs on the simulator --
// controllers, client transaction layer and transaction-wait oracle -- over
// explicit per-site-pair FIFO deques, driven by per-site scripts of
// lock/finish steps.  Each transaction is homed at its script's site and
// acts sequentially: the next step becomes schedulable only once every
// earlier lock was granted.  Detection runs with kOnBlock initiation --
// fully synchronous, so no timers exist and delivery order is the only
// nondeterminism.
//
// Checked properties (reported in the shared Axiom vocabulary):
//   QRP2  a controller declares `victim` only while the victim is truly
//         deadlocked per Database::oracle_deadlocked() (intra-controller
//         wait edges from every lock manager, plus the waits implied by
//         in-flight grey requests),
//   QRP1  at quiescence, if any transaction is oracle-deadlocked, some
//         deadlocked transaction was declared.  (The paper promises one
//         declaration per cycle -- the last closer's computation -- not one
//         per member; "some declared" equals that guarantee for the
//         single-cycle canonical scenarios.)
// Scenarios run with abort_victim = false so a detected deadlock stays
// observable instead of being resolved mid-exploration.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/explore.h"
#include "ddb/database.h"

namespace cmh::check {

struct DdbOp {
  enum class Kind : std::uint8_t { kLock, kFinish };

  Kind kind{Kind::kLock};
  TransactionId txn{};
  ResourceId resource{};  // kLock only
  ddb::LockMode mode{ddb::LockMode::kWrite};

  static DdbOp lock(TransactionId txn, ResourceId resource,
                    ddb::LockMode mode = ddb::LockMode::kWrite) {
    return {Kind::kLock, txn, resource, mode};
  }
  static DdbOp finish(TransactionId txn) {
    return {Kind::kFinish, txn, ResourceId{}, ddb::LockMode::kWrite};
  }
};

struct DdbScenario {
  std::string name;
  std::uint32_t n_sites{0};
  /// resource_owner[r.value()] = managing site of resource r.
  std::vector<SiteId> resource_owner;
  /// scripts[s] = ordered steps issued at site s; each step's transaction is
  /// homed at s.  Transaction ids must be dense from 0, and each
  /// transaction must appear in exactly one site's script.
  std::vector<std::vector<DdbOp>> scripts;
  ddb::DdbOptions options{.initiation = ddb::DdbInitiation::kOnBlock,
                          .abort_victim = false};
};

class DdbSystem final : public System {
 public:
  explicit DdbSystem(DdbScenario scenario);

  void reset() override;
  [[nodiscard]] std::vector<Transition> enabled() override;
  void execute(const Transition& t) override;
  [[nodiscard]] std::uint64_t fingerprint() override;
  void check_final() override;
  [[nodiscard]] const std::vector<Violation>& violations() const override {
    return violations_;
  }
  [[nodiscard]] std::string describe(const Transition& t) const override;

 private:
  [[nodiscard]] SimTime now() const { return SimTime::us(steps_); }
  [[nodiscard]] bool script_op_enabled(std::uint32_t s) const;
  void record(Axiom axiom, TransactionId txn, std::string detail);

  DdbScenario scenario_;
  /// txn_home_[t] = the site whose script issues transaction t.
  std::vector<SiteId> txn_home_;
  std::unique_ptr<ddb::Database> db_;
  std::map<std::pair<SiteId, SiteId>, std::deque<Bytes>> channels_;
  std::vector<std::size_t> script_pos_;
  std::int64_t steps_{0};
  std::uint64_t event_seq_{0};
  std::set<TransactionId> declared_;
  std::vector<Violation> violations_;
};

}  // namespace cmh::check
