// Epoll event loop: the reactor under the threaded transports.
//
// One EventLoop owns one epoll instance and one thread.  File descriptors
// are wrapped in Pollable objects; readiness events and every registry
// mutation (add / re-arm / destroy) happen exclusively on the loop thread,
// so Pollable state needs no locking at all.  Other threads talk to the
// loop only through post(), which enqueues a closure and wakes the loop
// via an eventfd, and post_after(), which posts the insertion of a
// wall-clock timer into a loop-thread-only deadline map.  Due timers fire
// after each task batch; the loop sleeps in epoll_pwait2 until the next
// deadline, so a timer's lateness is not rounded up to a millisecond.
//
// Lifetime of a Pollable is airtight against stale events: destroy()
// removes the fd from epoll and closes it, but the object itself is parked
// in a graveyard that is cleared only at the top of the next iteration --
// an event fetched into the same epoll_wait batch as the destroy still
// finds a live object and sees its `closed` flag.
//
// EventLoopPool is the pool policy both threaded transports share: how
// many loops run by default, which loop owns a node, and the refusal to
// wait on a loop from one of its own threads.
//
// Capability model (DESIGN.md section 7.2): tasks_mutex_ guards the posted
// task queue (the only cross-thread state); everything else, timers
// included, is loop-thread confined and documented with
// CMH_GUARDED_BY_PROTOCOL.  A pool's loop set is fixed at construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace cmh::net {

class EventLoop;

/// A file descriptor plus its readiness handler.  Owned by the loop's
/// registry; every member is touched only on the loop thread.
class Pollable {
 public:
  virtual ~Pollable() = default;

  Pollable(const Pollable&) = delete;
  Pollable& operator=(const Pollable&) = delete;

  /// Readiness callback (loop thread).  `events` is the raw epoll bit set.
  virtual void on_events(std::uint32_t events) = 0;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool closed() const { return closed_; }

 protected:
  explicit Pollable(int fd) : fd_(fd) {}

 private:
  friend class EventLoop;
  int fd_;
  bool closed_{false};  // loop thread only
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread.  Call once.
  void start();

  /// Requests exit, wakes the loop and joins it.  Every fd still in the
  /// registry is closed on the loop thread before it exits.  Idempotent,
  /// and safe from several threads at once (each returns once the loop is
  /// joined) and without start().  The object stays valid afterwards so
  /// that racing post() calls land on a dead-but-alive loop (they are
  /// dropped).  Must not be called on the loop thread: it would join
  /// itself.
  void stop();

  /// Runs `task` on the loop thread (any thread may call).  Returns false
  /// when the loop is stopping and the task was discarded.  Tasks still
  /// queued when the loop exits are run after the registry is closed (they
  /// observe closed pollables), so a poster blocking on a task's completion
  /// never hangs.
  bool post(std::function<void()> task);

  /// Runs `task` on the loop thread no earlier than `delay` from now (any
  /// thread may call).  Timers fire in deadline order, equal deadlines in
  /// the order they were scheduled.  Returns false when the loop is
  /// stopping; timers still pending when the loop exits are dropped
  /// without running.
  bool post_after(std::chrono::steady_clock::duration delay,
                  std::function<void()> task);

  /// True when the caller is the loop thread.  Safe from any thread after
  /// start() has returned, even while another thread runs stop().
  [[nodiscard]] bool on_loop_thread() const;

  // ---- loop-thread-only registry operations -------------------------------

  /// Registers `p` with the given epoll interest set and takes ownership.
  void add(std::shared_ptr<Pollable> p, std::uint32_t events);

  /// Replaces the epoll interest set of a registered pollable.
  void set_events(Pollable& p, std::uint32_t events);

  /// Deregisters, closes the fd and marks `p` closed.  The object is kept
  /// alive until the next iteration so stale events in the current batch
  /// cannot touch freed memory.
  void destroy(Pollable& p);

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  void run();
  void drain_wake() const;
  void fire_due_timers();

  int epoll_fd_{-1};
  int wake_fd_{-1};
  Mutex join_mutex_;  // concurrent stop() calls join once
  std::thread thread_ CMH_GUARDED_BY(join_mutex_);
  /// Set once by start(); unlike thread_, which join() resets.
  std::thread::id thread_id_;
  std::atomic<bool> stopping_{false};

  Mutex tasks_mutex_;
  std::vector<std::function<void()>> tasks_ CMH_GUARDED_BY(tasks_mutex_);
  bool wake_pending_ CMH_GUARDED_BY(tasks_mutex_){false};

  CMH_GUARDED_BY_PROTOCOL("loop thread only")
  std::vector<std::shared_ptr<Pollable>> registry_;
  CMH_GUARDED_BY_PROTOCOL("loop thread only")
  std::vector<std::shared_ptr<Pollable>> graveyard_;
  CMH_GUARDED_BY_PROTOCOL("loop thread only")
  std::multimap<TimePoint, std::function<void()>> timers_;
};

/// A fixed set of event loops shared by the nodes of one transport.  Node i
/// is owned by loop i mod size(): everything that runs for the node runs on
/// that one thread, so it never runs concurrently with itself.
class EventLoopPool {
 public:
  /// Runs `size` loops; 0 means default_size().
  explicit EventLoopPool(unsigned size = 0);

  /// min(4, hardware_concurrency).
  [[nodiscard]] static unsigned default_size();

  /// Spawns every loop thread.  Call once.
  void start();

  /// Joins every loop (see EventLoop::stop).  Call refuse_on_loop_thread()
  /// first: a loop cannot join itself.
  void stop();

  /// Throws std::logic_error naming `what` when the caller is one of the
  /// pool's loop threads (from inside a handler), where a call that waits
  /// for a loop would wait behind itself.
  void refuse_on_loop_thread(const char* what) const;

  /// The loop that owns `key` (a node id, or any other placement key):
  /// loop key mod size().
  [[nodiscard]] EventLoop& loop_for(std::size_t key) const {
    return *loops_[key % loops_.size()];
  }

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
};

}  // namespace cmh::net
