// ThreadedCluster -- hosts BasicProcess instances on a real (threaded)
// Transport: InMemoryTransport or the epoll TcpTransport.  Both run each
// node's handler on the event loop that owns the node; the cluster adds
// one EventLoop of its own for the kDelayed initiation timers
// (EventLoop::post_after), so a cluster costs the transport's L loop
// threads plus one.
//
// Each process is guarded by its own mutex; the transport's per-node
// delivery serialization plus this mutex give the paper's atomic-step
// property even when the application thread issues requests concurrently
// with message deliveries and timer callbacks.
//
// Capability model (DESIGN.md section 7.2): Cell::mutex guards the hosted
// BasicProcess (every touch of the process happens under it, whether from
// the application thread, a transport's event loop, or the timer loop,
// which re-takes it around each scheduled callback); detect_mutex_ guards
// the detection log.  Lock order where they nest: Cell::mutex before
// detect_mutex_ (the deadlock callback runs inside on_message), and
// Cell::mutex before the timer loop's EventLoop::tasks_mutex_ (a request
// schedules its initiation timer while holding the cell).
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "common/sync.h"
#include "core/basic_process.h"
#include "net/event_loop.h"
#include "net/transport.h"

namespace cmh::runtime {

class ThreadedCluster {
 public:
  /// The transport must be freshly constructed (no nodes yet) and outlive
  /// the cluster.  The cluster registers n nodes and starts the transport.
  ThreadedCluster(net::Transport& transport, std::uint32_t n,
                  core::Options options);
  ~ThreadedCluster();

  ThreadedCluster(const ThreadedCluster&) = delete;
  ThreadedCluster& operator=(const ThreadedCluster&) = delete;

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(cells_.size());
  }

  void request(ProcessId from, ProcessId to);
  void reply(ProcessId from, ProcessId to);
  std::optional<ProbeTag> initiate(ProcessId p);

  /// Thread-safe snapshot helpers.
  [[nodiscard]] bool deadlocked(ProcessId p) const;
  [[nodiscard]] bool declared(ProcessId p) const;
  [[nodiscard]] core::ProcessStats stats(ProcessId p) const;
  [[nodiscard]] std::set<graph::Edge> wfgd_edges(ProcessId p) const;

  /// Blocks until some process declares deadlock or the timeout elapses.
  /// Returns the declarer if any.
  std::optional<ProcessId> wait_for_detection(std::chrono::milliseconds max);

  /// Total declarations so far.
  [[nodiscard]] std::size_t detection_count() const;

  /// Stops the transport and the timer loop; no handler or timer runs
  /// once it returns.  Idempotent.  Throws std::logic_error, before
  /// stopping anything, when called from a handler or a timer callback
  /// (a transport or timer loop thread), which would have to join itself.
  void stop();

 private:
  struct Cell {
    mutable Mutex mutex;
    // The pointer is set once during construction (pre-concurrency); the
    // pointee is the per-process critical state.
    std::unique_ptr<core::BasicProcess> process CMH_PT_GUARDED_BY(mutex);
  };

  net::Transport& transport_;
  net::EventLoop timers_;
  std::vector<std::unique_ptr<Cell>> cells_;

  mutable Mutex detect_mutex_;
  CondVar detect_cv_;
  std::vector<ProcessId> detections_ CMH_GUARDED_BY(detect_mutex_);
};

}  // namespace cmh::runtime
