#include "ddb/cluster.h"

#include <stdexcept>

namespace cmh::ddb {

Cluster::Cluster(ClusterConfig config)
    : detail::ClusterSimulator{sim::Simulator(config.seed, config.delays)},
      Database(
          config.n_sites, config.options,
          [this](SiteId site) -> Controller::Sender {
            return [this, site](SiteId to, BytesView payload) {
              sim_.send(site.value(), to.value(), payload);
            };
          },
          [this](SimTime delay, std::function<void()> fn) {
            sim_.schedule(delay, std::move(fn));
          },
          [this] { return sim_.now(); },
          [n_sites = config.n_sites](ResourceId r) {
            return SiteId{r.value() % n_sites};
          }) {
  for (std::uint32_t i = 0; i < n_sites(); ++i) {
    sim_.add_node([site = &controller(SiteId{i})](sim::NodeId from,
                                                 const Bytes& payload) {
      const auto st = site->on_message(SiteId{from}, payload);
      if (!st.ok()) {
        throw std::logic_error("ddb::Cluster: bad frame: " + st.to_string());
      }
    });
  }
}

}  // namespace cmh::ddb
