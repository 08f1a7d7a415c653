// Deterministic discrete-event simulator with an optional sharded parallel
// engine.
//
// Hosts a set of nodes that exchange byte-payload messages over reliable,
// in-order, finite-delay channels -- exactly the communication assumption of
// the paper ("messages are received correctly and in order", P4/finite
// delivery).  Per-message delays are drawn from a seeded distribution; FIFO
// order per (src,dst) channel is enforced by clamping each delivery to be no
// earlier than the previous delivery on the same channel.  The simulator also
// provides timers, which the initiation policies and the workload drivers
// use, and counters for the benchmark harness.
//
// Determinism invariant (DESIGN.md section 4c): the event schedule is a pure
// function of (seed, workload) and is *bit-identical for every shard count*.
//   * Delays are counter-based: message i on channel (src,dst) always draws
//     hash(seed, src, dst, i), no matter which thread computes it or in what
//     global order -- there is no shared RNG stream to race on.
//   * Events are totally ordered by the canonical key (time, a, b, seq)
//     where (a,b,seq) = (src, dst, channel-index) for messages and
//     (owner, kTimerLane, owner-index) for timers.  The key never mentions
//     shards or threads.
//
// Sharded mode (shards > 1): nodes are partitioned into contiguous blocks,
// one per shard; each shard owns its own event queue, slab and buffer pool,
// plus the state of its nodes' outgoing channels.  Shards advance in
// conservative time windows of length DelayModel::min (the lookahead): any
// message sent at time t is delivered at >= t + min, so within a window no
// shard can affect another, and cross-shard sends are exchanged through
// per-shard-pair outboxes at the window barrier.
// Rules for multi-shard runs (all hold trivially when shards == 1):
//   * add all nodes before enqueuing the first event;
//   * a handler may only send on behalf of nodes of its own shard (in
//     practice: from == the node being delivered to / the timer's owner);
//   * handlers of nodes on different shards run concurrently and must not
//     share mutable state;
//   * DelayModel::min must be >= 1us.
//
// Hot-path layout (the event loop dominates every experiment bench):
//   * Per-shard two-level ladder queues (event_queue.h) replace the global
//     binary heap: O(1) amortized scheduling instead of O(log n), with
//     bucket-local memory traffic at large event counts.
//   * Events are tagged slab entries with a free list; message deliveries
//     carry (src, dst, payload) in the queue entry instead of boxing a
//     closure in std::function; only explicit timers pay for one.
//   * Payload buffers are pooled per shard, so steady-state traffic performs
//     zero heap allocations.
//   * Channel FIFO fronts and delay counters live in one sorted list per
//     source node, (to, front, count) with binary-search lookup: a send
//     touches its source's contiguous list and nothing else, at any node
//     count (the centralized baseline's coordinator sends to all N, hence
//     logarithmic lookup).  A source's list is written only by the shard
//     that owns the source node, which send() enforces.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/flat_map.h"
#include "common/serialize.h"
#include "common/sync.h"
#include "common/time.h"
#include "sim/event_queue.h"

namespace cmh::sim {

using NodeId = std::uint32_t;

/// Distribution of per-message network delays.  `min` doubles as the
/// conservative lookahead of the sharded engine.
struct DelayModel {
  SimTime min{SimTime::us(50)};
  SimTime max{SimTime::us(500)};

  static DelayModel fixed(SimTime d) { return {d, d}; }
  static DelayModel uniform(SimTime lo, SimTime hi) { return {lo, hi}; }
};

/// Counters exposed to tests and benchmarks.  Aggregated across shards;
/// totals are shard-count-independent.
struct SimStats {
  std::uint64_t messages_sent{0};
  std::uint64_t messages_delivered{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t timers_fired{0};
  std::uint64_t events_processed{0};
};

/// Observation hook for correctness tooling (src/check).  Callbacks fire
/// synchronously on the simulator thread: on_send inside send() at the send
/// instant, on_deliver inside dispatch immediately *before* the receiving
/// node's handler runs, so an observer sees every state transition at the
/// instant the model says it happens.  Observers are only supported in
/// single-shard mode: with shards > 1 deliveries on different shards run
/// concurrently and a global observer would be a data race by construction.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_send(NodeId from, NodeId to, BytesView payload,
                       SimTime at) = 0;
  virtual void on_deliver(NodeId from, NodeId to, BytesView payload,
                          SimTime at) = 0;
};

class Simulator {
 public:
  using MessageHandler =
      std::function<void(NodeId from, const Bytes& payload)>;

  explicit Simulator(std::uint64_t seed = 1, DelayModel delays = DelayModel{},
                     std::uint32_t shards = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a node; returns its id (dense, starting at 0).  In multi-shard
  /// mode all nodes must be added before the first send/schedule.
  NodeId add_node(MessageHandler handler);

  /// Replaces the handler of an existing node (used by harnesses that
  /// construct nodes after wiring).
  void set_handler(NodeId node, MessageHandler handler);

  /// Attaches (or detaches, with nullptr) a traffic observer.  The observer
  /// is borrowed and must outlive the simulator or be detached first.
  /// Throws std::logic_error in multi-shard mode -- see SimObserver.
  void set_observer(SimObserver* observer);

  [[nodiscard]] SimObserver* observer() const { return observer_; }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  [[nodiscard]] std::uint32_t shard_count() const { return shard_count_; }

  /// Shard owning `node` (contiguous-block partition, frozen at the first
  /// event in multi-shard mode).  Placement-aware workloads use this to keep
  /// tightly-coupled node groups on one shard.
  [[nodiscard]] std::uint32_t shard_of(NodeId node) const {
    return shard_count_ == 1 ? 0u
                             : static_cast<std::uint32_t>(node / shard_block_);
  }

  /// Enqueues a message for in-order delivery after a seeded random delay.
  /// The payload is copied into a pooled buffer; the view need only be valid
  /// for the duration of the call.  Both endpoints must be registered nodes.
  void send(NodeId from, NodeId to, BytesView payload);

  /// Schedules `fn` to run at now() + delay.  The timer is owned by the node
  /// whose event is currently dispatching (or by the control context outside
  /// dispatch) and fires on that owner's shard.
  void schedule(SimTime delay, std::function<void()> fn);

  /// Current virtual time: the dispatching event's time inside a handler
  /// (shard-local in parallel runs), the last completed time outside.
  [[nodiscard]] SimTime now() const;

  [[nodiscard]] const SimStats& stats() const;
  void reset_stats();

  /// Processes the single earliest pending event in canonical key order.
  /// Returns false if idle.  (Sequential for any shard count.)
  bool step();

  /// Runs until no events remain.  Returns the final virtual time.  With
  /// shards > 1 this is the parallel windowed engine.
  SimTime run();

  /// Batched-delivery mode: processes up to `max_events` events without
  /// per-event caller round-trips; returns the number processed (less than
  /// `max_events` iff the queue drained).  Event order is identical to
  /// step()-ing in a loop -- this is a throughput interface, not a different
  /// schedule (and therefore sequential; use run()/run_until() for parallel
  /// throughput).
  std::size_t run_batch(std::size_t max_events);

  /// Runs until the given virtual time (inclusive) or until idle.  With
  /// shards > 1 this is the parallel windowed engine.
  void run_until(SimTime t);

  /// Runs until `pred()` holds or the event queue drains; returns pred().
  /// Sequential for any shard count (the predicate is checked between
  /// events).
  bool run_while_pending(const std::function<bool()>& pred);

  [[nodiscard]] bool idle() const;

 private:
  // Timer events use this lane in the canonical key; no node can own it.
  static constexpr std::uint32_t kTimerLane = 0xFFFFFFFFu;
  // Owner id for timers scheduled outside any dispatch (tests, harness
  // setup); their events run on shard 0.
  static constexpr NodeId kControlNode = 0xFFFFFFFFu;

  // Slab entry.  Message events use payload; timer events use fn.  Both the
  // payload buffer and the slot are recycled.
  struct Event {
    Bytes payload;
    std::function<void()> fn;
  };

  // Per-channel FIFO + determinism state: last scheduled delivery time and
  // the number of messages sent so far (the counter the delay draw hashes).
  struct ChannelState {
    SimTime front{SimTime::zero()};
    std::uint64_t count{0};
  };

  // A message crossing shards, parked in a per-(src,dst)-shard outbox until
  // the window barrier.
  struct CrossMsg {
    SimTime time;
    NodeId from{0};
    NodeId to{0};
    std::uint64_t seq{0};
    Bytes payload;
  };

  // Everything a shard touches while processing a window.  Padded so two
  // shards' hot state never shares a cache line.
  struct alignas(64) ShardState {
    EventQueue queue;
    std::vector<Event> slab;
    std::vector<std::uint32_t> free_slots;
    std::vector<Bytes> buffer_pool;
    SimTime now{SimTime::zero()};
    SimStats stats;
    std::exception_ptr error;

    explicit ShardState(std::int64_t width_hint) : queue(width_hint) {}
  };

  struct WindowCompletion {
    Simulator* sim;
    void operator()() const noexcept { sim->compute_next_window(); }
  };

  std::uint32_t acquire_slot(ShardState& shard);
  void release_slot(ShardState& shard, std::uint32_t slot);
  Bytes take_buffer(ShardState& shard);
  void recycle_buffer(ShardState& shard, Bytes&& buffer);

  [[nodiscard]] SimTime channel_delay(NodeId from, NodeId to,
                                      std::uint64_t count) const;

  void ensure_partition();
  void enqueue_message(ShardState& dst, SimTime at, NodeId from, NodeId to,
                       std::uint64_t seq, Bytes&& payload);
  void dispatch_on(std::uint32_t shard_idx, const EventQueue::Entry& entry);

  // Sequential engine: canonical-order merge across shard queues.
  [[nodiscard]] int min_shard();
  bool step_sequential();

  // Parallel windowed engine.
  void run_parallel(SimTime limit);
  void start_pool();
  void stop_pool();
  void parallel_worker(std::uint32_t shard_idx);
  void window_loop(std::uint32_t shard_idx);
  void compute_next_window() noexcept;

  std::uint64_t seed_;
  DelayModel delays_;
  std::uint32_t shard_count_;
  std::size_t shard_block_{1};
  bool partition_frozen_{false};

  SimTime now_{SimTime::zero()};
  SimObserver* observer_{nullptr};
  std::vector<MessageHandler> nodes_;
  std::vector<ShardState> shards_;

  // Per-owner timer counters (canonical key seq for the timer lane).
  std::vector<std::uint64_t> timer_seq_;
  std::uint64_t control_timer_seq_{0};

  // Channel FIFO/counter state, one list per source node keyed by
  // destination.  Like timer_seq_, entry i is touched only by the shard
  // owning node i.
  std::vector<FlatMap<NodeId, ChannelState>> channels_;

  // ---- parallel runtime ----------------------------------------------------
  // Ownership-transfer fields (no mutex; see DESIGN.md section 7.2): these
  // are synchronized by the window protocol itself, which the thread-safety
  // analysis cannot model, so each carries a CMH_GUARDED_BY_PROTOCOL marker
  // stating the handoff instead of a capability.
  //
  // Outboxes, indexed src_shard * K + dst_shard.  A cell is written only by
  // the src worker during the processing phase and drained only by the dst
  // worker after the barrier, so the barrier provides all synchronization.
  std::vector<std::vector<CrossMsg>> outbox_
      CMH_GUARDED_BY_PROTOCOL("drain_bar_: src writes phase-before dst reads");
  // Written by compute_next_window() on exactly one thread while every
  // worker is parked at window_bar_; workers read them only after crossing
  // that barrier.
  std::int64_t job_limit_ CMH_GUARDED_BY_PROTOCOL("window_bar_"){INT64_MAX};
  std::int64_t win_end_ CMH_GUARDED_BY_PROTOCOL("window_bar_"){0};
  bool win_done_ CMH_GUARDED_BY_PROTOCOL("window_bar_"){false};
  std::atomic<bool> abort_{false};
  // Atomic because shard workers consult it inside send() (shard-affinity
  // check) without taking pool_mutex_; the pool condvar handshake publishes
  // the store that matters before any worker runs.
  std::atomic<bool> parallel_active_{false};
  std::unique_ptr<std::barrier<WindowCompletion>> window_bar_;
  std::unique_ptr<std::barrier<>> drain_bar_;
  std::vector<std::thread> pool_;
  Mutex pool_mutex_;
  CondVar pool_cv_;
  CondVar pool_done_cv_;
  std::uint64_t job_gen_ CMH_GUARDED_BY(pool_mutex_){0};
  std::uint32_t jobs_done_ CMH_GUARDED_BY(pool_mutex_){0};
  bool pool_quit_ CMH_GUARDED_BY(pool_mutex_){false};

  mutable SimStats stats_agg_;
};

}  // namespace cmh::sim
