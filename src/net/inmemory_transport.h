// Multithreaded in-process transport on an event-loop pool.
//
// Node i is owned by loop i mod L (EventLoopPool).  send() copies the
// payload and posts its delivery to the loop that owns the destination, so
// a node's handler runs only on that one thread, one message at a time (the
// paper's atomic-step requirement), while nodes on different loops run
// concurrently.  Per-channel FIFO holds because a loop runs posted tasks in
// the order they were posted.  A transport costs L threads, whatever its
// size.
//
// Capability model (DESIGN.md section 7.2): nodes_mutex_ serializes
// registration against start(); the handler set is frozen at start() and
// read lock-free afterwards (published by started_).  All delivery state
// is the loops' task queues.
#pragma once

#include <atomic>
#include <vector>

#include "common/sync.h"
#include "net/event_loop.h"
#include "net/transport.h"

namespace cmh::net {

class InMemoryTransport final : public Transport {
 public:
  InMemoryTransport() = default;
  ~InMemoryTransport() override { stop(); }

  InMemoryTransport(const InMemoryTransport&) = delete;
  InMemoryTransport& operator=(const InMemoryTransport&) = delete;

  NodeId add_node(Handler handler) override;
  /// Rejected after start(): the loops read handlers without a lock, which
  /// is only sound while the handler set is frozen.
  void set_handler(NodeId node, Handler handler) override;
  /// Copies the payload and posts its delivery.  Throws std::logic_error
  /// before start() and std::out_of_range for an unknown endpoint.
  void send(NodeId from, NodeId to, BytesView payload) override;
  void start() override;
  /// Delivers every message sent before the call, then joins the loops, so
  /// no handler runs once it returns.  Throws std::logic_error on a loop
  /// thread (from inside a handler): the loop would have to join itself.
  void stop() override;

 private:
  Mutex nodes_mutex_;
  CMH_GUARDED_BY_PROTOCOL(
      "written under nodes_mutex_ before start(); frozen and read lock-free "
      "after, published by started_")
  std::vector<Handler> handlers_;
  EventLoopPool pool_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace cmh::net
