// Cluster -- a ddb::Database hosted on a sim::Simulator, with round-robin
// resource placement: resource r lives at site (r mod n_sites).
//
// This is the top-level public API for the DDB model (see README quickstart):
//
//   ddb::Cluster db({.n_sites = 4, .n_resources = 64});
//   auto t = db.begin(SiteId{0});
//   db.lock(t, ResourceId{7}, LockMode::kWrite);
//   db.simulator().run();
//   if (db.status(t) == TxnStatus::kAborted) { /* deadlock victim */ }
#pragma once

#include "ddb/database.h"
#include "sim/simulator.h"

namespace cmh::ddb {

struct ClusterConfig {
  std::uint32_t n_sites{4};
  std::uint32_t n_resources{64};
  DdbOptions options{};
  std::uint64_t seed{1};
  sim::DelayModel delays{};
};

namespace detail {
/// Holds the simulator in a base constructed before (and destroyed after)
/// the Database whose controllers send and schedule through it.
struct ClusterSimulator {
  sim::Simulator sim_;
};
}  // namespace detail

/// Everything but simulator() comes from the Database base; its oracle is
/// exact whenever the simulator is idle.
class Cluster : private detail::ClusterSimulator, public Database {
 public:
  explicit Cluster(ClusterConfig config);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
};

}  // namespace cmh::ddb
