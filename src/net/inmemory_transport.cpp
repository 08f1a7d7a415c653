#include "net/inmemory_transport.h"

#include <stdexcept>

namespace cmh::net {

NodeId InMemoryTransport::add_node(Handler handler) {
  const MutexLock lock(nodes_mutex_);
  if (started_) {
    throw std::logic_error("InMemoryTransport: add_node after start()");
  }
  handlers_.push_back(std::move(handler));
  return static_cast<NodeId>(handlers_.size() - 1);
}

void InMemoryTransport::set_handler(NodeId node, Handler handler) {
  const MutexLock lock(nodes_mutex_);
  if (started_) {
    // The loops read handlers without a lock (frozen-after-start protocol);
    // replacing one mid-flight would race with delivery.
    throw std::logic_error("InMemoryTransport: set_handler after start()");
  }
  handlers_.at(node) = std::move(handler);
}

void InMemoryTransport::send(NodeId from, NodeId to, BytesView payload) {
  if (!started_.load(std::memory_order_acquire)) {
    throw std::logic_error("InMemoryTransport::send: transport not started");
  }
  if (from >= handlers_.size() || to >= handlers_.size()) {
    throw std::out_of_range("InMemoryTransport::send: unknown node");
  }
  // After stop() the loop refuses the task; drops at shutdown are
  // acceptable, as on every threaded transport.
  pool_.loop_for(to).post(
      [this, from, to, frame = Bytes(payload.begin(), payload.end())] {
        if (const Handler& handler = handlers_[to]) handler(from, frame);
      });
}

void InMemoryTransport::start() {
  const MutexLock lock(nodes_mutex_);
  if (stopping_) {
    // The loops were joined; they cannot be restarted in place.
    throw std::logic_error(
        "InMemoryTransport: restart after stop() unsupported");
  }
  if (started_) return;
  pool_.start();
  started_.store(true, std::memory_order_release);
}

void InMemoryTransport::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  pool_.refuse_on_loop_thread("InMemoryTransport::stop");
  if (stopping_.exchange(true)) return;  // a concurrent stop() owns teardown
  pool_.stop();
}

}  // namespace cmh::net
