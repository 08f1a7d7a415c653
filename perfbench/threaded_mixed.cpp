// tcp_mixed / inmem_mixed: runtime::ThreadedCluster of 16 BasicProcesses
// on the epoll net::TcpTransport or on net::InMemoryTransport, driven by
// one open-loop generator thread with two kinds of traffic:
//   * a persistent dark 8-ring (nodes 0-7) re-probed by initiate() at
//     1k/s, one computation in flight (a computation due while another is
//     running waits for it; its latency still counts from its due time);
//   * request/reply churn on four disjoint client/server pairs (8-15) at
//     10k/s in total.  The server replies when the request is delivered;
//     kOnRequest sends one probe per request -- the section-4 overhead of
//     detection when there is no deadlock.  A request due while its pair
//     is busy waits in a per-pair backlog and is sent when the reply lands.
//
// End-to-end: ops = round trips and ring detections; ops_per_s = completed
// ops over the time from the first due op to the last completion (the
// offered 11k/s unless a backlog builds); cpu_us_per_op = CPU time of every
// thread but the generator's per completed op; op latency = due -> reply
// delivered; detect latency = due -> declaration (8 probe hops);
// msgs_per_op = frames per completed op.  Latencies are medians over 1 s
// windows of the per-window percentile.
//
// Per-layer figures come from a bench-owned Transport decorator (send time,
// per-channel FIFO-matched transit time, handler time) and from timing the
// benchmark's own request/reply/initiate calls.
#include <sys/prctl.h>
#include <time.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/sync.h"
#include "core/messages.h"
#include "net/inmemory_transport.h"
#include "net/tcp_transport.h"
#include "runtime/threaded_cluster.h"

namespace cmh::perfbench {
namespace {

using net::NodeId;

constexpr std::uint32_t kNodes = 16;
constexpr std::uint32_t kRingLen = 8;
constexpr std::uint32_t kPairs = (kNodes - kRingLen) / 2;
constexpr std::int64_t kRttPeriodNs = 100'000;    // 10k round trips/s
constexpr std::int64_t kRingPeriodNs = 1'000'000;  // 1k detections/s
constexpr std::int64_t kWindowNs = 1'000'000'000;
constexpr std::int64_t kWarmupNs = 500'000'000;    // excluded from samples
constexpr std::int64_t kLimitNs = 50'000'000;      // generous latency limit
constexpr std::int64_t kLateNs = 50'000;           // generator lag = "late"
constexpr std::int64_t kSpinNs = 30'000;           // spin the last stretch
constexpr int kSetups = 9;

/// Bench-owned Transport decorator: counts frames and bytes, and in traced
/// runs times send(), the cluster's handler, and each frame's transit
/// (matched per channel in FIFO order).  After the cluster's handler it
/// calls the workload hook, which plays the servers and observes replies
/// and declarations.
class TimedTransport final : public net::Transport {
 public:
  using Hook = std::function<void(NodeId to, NodeId from, const Bytes&)>;

  TimedTransport(net::Transport& inner, bool traced, Hook hook)
      : inner_(inner), traced_(traced), hook_(std::move(hook)) {
    for (std::uint32_t i = 0; i < kNodes * kNodes; ++i) {
      fifos_.push_back(std::make_unique<Fifo>());
    }
  }

  NodeId add_node(Handler handler) override {
    const auto id = static_cast<NodeId>(handlers_.size());
    if (id >= kNodes) throw std::logic_error("TimedTransport: too many nodes");
    handlers_.push_back(std::move(handler));
    return inner_.add_node(
        [this, id](NodeId from, const Bytes& payload) {
          deliver(id, from, payload);
        });
  }

  void set_handler(NodeId, Handler) override {
    throw std::logic_error("TimedTransport: handlers are fixed at add_node");
  }

  void send(NodeId from, NodeId to, BytesView payload) override {
    sent_.fetch_add(1, std::memory_order_acq_rel);
    SendSide& s = send_side_[from];
    s.frames.fetch_add(1, std::memory_order_relaxed);
    s.bytes.fetch_add(payload.size(), std::memory_order_relaxed);
    if (!traced_) return inner_.send(from, to, payload);
    const std::int64_t t0 = now_ns();
    {
      Fifo& f = *fifos_[from * kNodes + to];
      const MutexLock lock(f.mu);
      f.sent.push_back(t0);
    }
    inner_.send(from, to, payload);
    s.ns.fetch_add(static_cast<std::uint64_t>(now_ns() - t0),
                   std::memory_order_relaxed);
    s.calls.fetch_add(1, std::memory_order_relaxed);
  }

  void start() override { inner_.start(); }
  void stop() override { inner_.stop(); }

  [[nodiscard]] std::uint64_t frames() const {
    return sum(&SendSide::frames);
  }
  [[nodiscard]] std::uint64_t bytes() const { return sum(&SendSide::bytes); }
  [[nodiscard]] TimeAcc send_time() const {
    return TimeAcc{sum(&SendSide::ns), sum(&SendSide::calls)};
  }

  /// Per-node receive-side figures of the measured phase; read only after
  /// the transport stopped.
  struct RecvSide {
    TimeAcc handler;
    std::vector<double> transit_us;
  };
  [[nodiscard]] const RecvSide& recv_side(NodeId n) const {
    return recv_side_[n];
  }

  /// True once every frame sent has been delivered and its handler and hook
  /// have returned.  A handler's own sends count before its delivery does,
  /// and delivered never exceeds sent, so reading delivered first and
  /// finding sent equal proves nothing was in flight or running.
  [[nodiscard]] bool quiescent() const {
    const std::uint64_t delivered = delivered_.load(std::memory_order_acquire);
    return delivered == sent_.load(std::memory_order_acquire);
  }

  /// Starts the measured phase: zeroes the send-side counters and lets
  /// the delivery threads record.  Trailing frames of the set-up (a probe
  /// behind a reply, a WFGD set) may still be in flight, so the receive
  /// side is never reset from here: its owners start from empty.
  void start_recording() {
    for (SendSide& s : send_side_) {
      for (auto* f : {&s.frames, &s.bytes, &s.ns, &s.calls}) {
        f->store(0, std::memory_order_relaxed);
      }
    }
    recording_.store(true, std::memory_order_release);
  }

 private:
  struct alignas(64) SendSide {
    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};
  };
  std::uint64_t sum(std::atomic<std::uint64_t> SendSide::*field) const {
    std::uint64_t n = 0;
    for (const SendSide& s : send_side_) {
      n += (s.*field).load(std::memory_order_relaxed);
    }
    return n;
  }

  struct Fifo {
    Mutex mu;
    std::deque<std::int64_t> sent CMH_GUARDED_BY(mu);
  };

  // Runs on `to`'s delivery thread; the transport never runs one node's
  // handler concurrently with itself, so recv_side_[to] needs no lock.
  // Every traced delivery pops its channel's FIFO, recording or not, so
  // send and delivery stamps stay paired.
  void deliver(NodeId to, NodeId from, const Bytes& payload) {
    if (!traced_) {
      handlers_[to](from, payload);
    } else {
      const std::int64_t t0 = now_ns();
      std::int64_t sent = t0;
      {
        Fifo& f = *fifos_[from * kNodes + to];
        const MutexLock lock(f.mu);
        if (!f.sent.empty()) {
          sent = f.sent.front();
          f.sent.pop_front();
        }
      }
      handlers_[to](from, payload);
      if (recording_.load(std::memory_order_acquire)) {
        RecvSide& r = recv_side_[to];
        r.transit_us.push_back(static_cast<double>(t0 - sent) / 1e3);
        r.handler.add(now_ns() - t0);
      }
    }
    hook_(to, from, payload);
    delivered_.fetch_add(1, std::memory_order_acq_rel);
  }

  net::Transport& inner_;
  const bool traced_;
  Hook hook_;
  std::vector<Handler> handlers_;
  std::array<SendSide, kNodes> send_side_;
  std::array<RecvSide, kNodes> recv_side_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::vector<std::unique_ptr<Fifo>> fifos_;
};

/// One latency sample: when the op was due and how long it took.
struct Sample {
  std::int64_t due;
  std::int64_t latency;
};

/// A stream of ops with at most one in flight: ops due while busy wait in
/// a backlog and start when the running one completes.
struct Lane {
  Mutex mu;
  bool busy CMH_GUARDED_BY(mu){false};
  std::int64_t inflight_due CMH_GUARDED_BY(mu){0};
  std::uint64_t inflight_seq CMH_GUARDED_BY(mu){0};
  std::deque<std::int64_t> backlog CMH_GUARDED_BY(mu);
  std::vector<Sample> samples CMH_GUARDED_BY(mu);

  /// An op fell due: true if the caller must start it now, false if it
  /// joined the backlog.
  bool admit(std::int64_t due) CMH_REQUIRES(mu) {
    if (busy) {
      backlog.push_back(due);
      return false;
    }
    busy = true;
    inflight_due = due;
    return true;
  }

  /// The op in flight completed: records its sample; true if the caller
  /// must start the next (backlogged) op now.
  bool complete() CMH_REQUIRES(mu) {
    samples.push_back({inflight_due, now_ns() - inflight_due});
    if (backlog.empty()) {
      busy = false;
      return false;
    }
    inflight_due = backlog.front();
    backlog.pop_front();
    return true;
  }
};

class Mixed {
 public:
  Mixed(bool tcp, bool traced, std::uint64_t seed) : traced_(traced) {
    Rng rng(seed);
    // The seed picks the ring member that initiates first and the order in
    // which the generator visits the pairs; the schedule is fixed-rate.
    ring_start_ = static_cast<std::uint32_t>(rng.below(kRingLen));
    for (std::uint32_t k = 0; k < kPairs; ++k) pair_order_[k] = k;
    for (std::uint32_t k = kPairs; k > 1; --k) {
      std::swap(pair_order_[k - 1], pair_order_[rng.below(k)]);
    }
    if (tcp) {
      tcp_inner_ = std::make_unique<net::TcpTransport>();
    } else {
      mem_inner_ = std::make_unique<net::InMemoryTransport>();
    }
    net::Transport& inner =
        tcp ? static_cast<net::Transport&>(*tcp_inner_) : *mem_inner_;
    transport_ = std::make_unique<TimedTransport>(
        inner, traced_,
        [this](NodeId to, NodeId from, const Bytes& p) {
          on_delivered(to, from, p);
        });
    core::Options options;
    options.initiation = core::InitiationMode::kOnRequest;
    cluster_ = std::make_unique<runtime::ThreadedCluster>(*transport_,
                                                          kNodes, options);
  }

  ~Mixed() {
    settle();
    cluster_->stop();
  }

  Mixed(const Mixed&) = delete;
  Mixed& operator=(const Mixed&) = delete;

  /// Closes the ring (the kOnRequest computations declare it) and warms
  /// every channel the run uses with one round trip per pair.
  void wedge() {
    for (std::uint32_t i = 0; i < kRingLen; ++i) {
      cluster_->request(ProcessId{i}, ProcessId{(i + 1) % kRingLen});
    }
    if (!cluster_->wait_for_detection(std::chrono::seconds(5))) {
      throw std::runtime_error("ring never declared during set-up");
    }
    const std::int64_t t = now_ns();
    for (std::uint32_t k = 0; k < kPairs; ++k) admit_rtt(k, t);
    // One re-probe from every member settles each member's one-off WFGD.
    for (std::uint32_t i = 0; i < kRingLen; ++i) {
      admit_ring(now_ns());
      wait_idle(std::chrono::seconds(5));
    }
    wait_idle(std::chrono::seconds(5));
    for (Lane& l : pairs_) {
      const MutexLock lock(l.mu);
      l.samples.clear();
    }
    {
      const MutexLock lock(ring_.mu);
      ring_.samples.clear();
    }
  }

  Report measure(double seconds) {
    Report rep;
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const double threads = thread_count();
    const std::size_t detections0 = cluster_->detection_count();
    const core::ProcessStats core0 = core_stats();
    const net::TransportIoStats io0 = io_stats();
    transport_->start_recording();

    const double cpu0 = cpu_seconds();
    const double gen_cpu0 = cpu_seconds(/*this_thread_only=*/true);
    const std::int64_t start = now_ns() + 1'000'000;
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t next_rtt = start;
    std::int64_t next_ring = start + kRingPeriodNs / 2;
    std::vector<double> lag_us;
    std::uint64_t late = 0, rtt_due = 0, ring_due = 0;
    std::uint32_t rtt_k = 0;
    for (;;) {
      const std::int64_t due = std::min(next_rtt, next_ring);
      if (due >= end) break;
      sleep_until(due);
      const std::int64_t lag = now_ns() - due;
      lag_us.push_back(static_cast<double>(lag) / 1e3);
      if (lag > kLateNs) ++late;
      if (due == next_ring) {
        admit_ring(due);
        ++ring_due;
        next_ring += kRingPeriodNs;
      } else {
        admit_rtt(pair_order_[rtt_k++ % kPairs], due);
        ++rtt_due;
        next_rtt += kRttPeriodNs;
      }
    }
    const bool drained = wait_idle(std::chrono::seconds(5)) && settle();
    const double cpu_s = (cpu_seconds() - cpu0) -
                         (cpu_seconds(/*this_thread_only=*/true) - gen_cpu0);

    // Gather samples (every lane is idle or abandoned; take the locks anyway).
    std::vector<Sample> rtt, det;
    for (Lane& l : pairs_) {
      const MutexLock lock(l.mu);
      rtt.insert(rtt.end(), l.samples.begin(), l.samples.end());
    }
    {
      const MutexLock lock(ring_.mu);
      det = ring_.samples;
    }
    const std::uint64_t completed_rtt = rtt.size();
    const std::uint64_t completed_det = det.size();
    std::uint64_t over_limit = 0;
    for (const Sample& s : rtt) over_limit += s.latency > kLimitNs ? 1 : 0;
    for (const Sample& s : det) over_limit += s.latency > kLimitNs ? 1 : 0;
    rep.attempted = rtt_due + ring_due;
    rep.failed = (rep.attempted - completed_rtt - completed_det) + over_limit;
    if (!drained) rep.fail("ops outstanding 5 s after the schedule ended");
    if (over_limit > 0) {
      rep.fail(std::to_string(over_limit) + " ops over the latency limit");
    }

    // Correctness gates: only ring members declare, once per computation.
    for (std::uint32_t p = kRingLen; p < kNodes; ++p) {
      if (cluster_->declared(ProcessId{p}) ||
          cluster_->deadlocked(ProcessId{p})) {
        rep.fail("process " + std::to_string(p) + " off the ring declared");
      }
    }
    const std::size_t declared = cluster_->detection_count() - detections0;
    if (declared != completed_det) {
      rep.fail("declarations (" + std::to_string(declared) +
               ") != completed ring computations (" +
               std::to_string(completed_det) + ")");
    }
    report_core(rep, core0, core_stats(), kNodes);
    const net::TransportIoStats io1 = io_stats();
    if (io1.frames_dropped != 0) rep.fail("transport dropped frames");

    // End-to-end figures: medians over 1 s windows (after warm-up).
    const auto windows = [&](const std::vector<Sample>& v, double q) {
      std::map<std::int64_t, std::vector<double>> by_window;
      for (const Sample& s : v) {
        if (s.due < start + kWarmupNs) continue;
        by_window[(s.due - start - kWarmupNs) / kWindowNs].push_back(
            static_cast<double>(s.latency) / 1e3);
      }
      std::vector<double> per;
      for (auto& [w, xs] : by_window) per.push_back(percentile(xs, q));
      return median(per);
    };
    std::int64_t last = start;
    for (const Sample& s : rtt) last = std::max(last, s.due + s.latency);
    for (const Sample& s : det) last = std::max(last, s.due + s.latency);
    const auto frames = transport_->frames();
    const double ops = static_cast<double>(completed_rtt + completed_det);
    rep.e2e["ops_per_s"] = ratio(ops, static_cast<double>(last - start) / 1e9);
    rep.e2e["cpu_us_per_op"] = ratio(cpu_s * 1e6, ops);
    rep.e2e["op_p50_us"] = windows(rtt, 0.5);
    rep.e2e["detect_p50_us"] = windows(det, 0.5);
    rep.e2e["msgs_per_op"] = ratio(frames, ops);
    rep.layer["tail.op_p90_us"] = windows(rtt, 0.9);
    rep.layer["tail.detect_p90_us"] = windows(det, 0.9);
    rep.cost = rep.e2e["op_p50_us"];
    rep.notes.emplace_back("round_trips", static_cast<double>(completed_rtt));
    rep.notes.emplace_back("detections", static_cast<double>(completed_det));

    // Per-layer ledger.
    cluster_->stop();  // joins the delivery threads: recv sides are final
    TimeAcc handler;
    std::vector<double> transit;
    for (NodeId n = 0; n < kNodes; ++n) {
      const auto& r = transport_->recv_side(n);
      handler.merge(r.handler);
      transit.insert(transit.end(), r.transit_us.begin(), r.transit_us.end());
    }
    rep.layer["net.write_syscalls_per_frame"] =
        ratio(io1.write_syscalls - io0.write_syscalls,
              io1.frames_sent - io0.frames_sent);
    rep.layer["net.read_syscalls_per_frame"] =
        ratio(io1.read_syscalls - io0.read_syscalls,
              io1.frames_delivered - io0.frames_delivered);
    rep.layer["net.frames_dropped"] = static_cast<double>(io1.frames_dropped);
    rep.layer["net.bytes_per_op"] = ratio(transport_->bytes(), ops);
    rep.layer["runtime.threads"] = threads;
    rep.layer["gen.lag_p99_us"] = percentile(lag_us, 0.99);
    rep.layer["gen.late_frac"] = ratio(late, lag_us.size());
    if (traced_) {
      const double transit_p50 = percentile(transit, 0.5);
      const double hop_us = transit_p50 + handler.mean_ns() / 1e3;
      const double detect_p50 = rep.e2e["detect_p50_us"];
      const MutexLock lock(calls_mu_);
      rep.layer["net.send_ns"] = transport_->send_time().mean_ns();
      rep.layer["net.transit_p50_us"] = transit_p50;
      rep.layer["runtime.handler_ns"] = handler.mean_ns();
      rep.layer["runtime.call_ns"] = calls_.mean_ns();
      rep.layer["ledger.gap_frac"] =
          ratio(detect_p50 - kRingLen * hop_us, detect_p50);
    }
    return rep;
  }

 private:
  static void sleep_until(std::int64_t t) {
    const std::int64_t wake = t - kSpinNs;
    if (wake > now_ns()) {
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(wake / 1'000'000'000);
      ts.tv_nsec = static_cast<long>(wake % 1'000'000'000);
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
             EINTR) {
      }
    }
    while (now_ns() < t) {
    }
  }

  template <typename F>
  auto timed_call(F&& f) {
    if (!traced_) return f();
    const std::int64_t t0 = now_ns();
    auto result = f();
    const std::int64_t d = now_ns() - t0;
    const MutexLock lock(calls_mu_);
    calls_.add(d);
    return result;
  }

  void start_rtt(std::uint32_t k) {
    const ProcessId client{kRingLen + 2 * k};
    const ProcessId server{kRingLen + 2 * k + 1};
    timed_call([&] {
      cluster_->request(client, server);
      return 0;
    });
  }

  void admit_rtt(std::uint32_t k, std::int64_t due) {
    Lane& l = pairs_[k];
    const MutexLock lock(l.mu);
    if (l.admit(due)) start_rtt(k);
  }

  // Starts the next ring computation; ring_.mu held by the caller.
  void start_ring() CMH_REQUIRES(ring_.mu) {
    const ProcessId initiator{(ring_start_ + ring_started_++) % kRingLen};
    const auto tag = timed_call([&] { return cluster_->initiate(initiator); });
    if (!tag) throw std::logic_error("ring member not blocked at initiate()");
    ring_.inflight_seq = tag->sequence;
    ring_initiator_ = initiator.value();
  }

  void admit_ring(std::int64_t due) {
    const MutexLock lock(ring_.mu);
    if (ring_.admit(due)) start_ring();
  }

  /// The workload's reaction to a delivered frame (runs on `to`'s delivery
  /// thread, after the cluster's handler).
  void on_delivered(NodeId to, NodeId from, const Bytes& payload) {
    if (payload.empty()) return;
    const std::uint8_t type = payload[0];
    if (to >= kRingLen && type == core::wire::kRequest) {
      timed_call([&] {
        cluster_->reply(ProcessId{to}, ProcessId{from});
        return 0;
      });
    } else if (to >= kRingLen && type == core::wire::kReply) {
      const std::uint32_t k = (to - kRingLen) / 2;
      Lane& l = pairs_[k];
      const MutexLock lock(l.mu);
      if (l.complete()) start_rtt(k);
    } else if (to < kRingLen && type == core::wire::kProbe) {
      const auto msg = core::decode(payload);
      if (!msg.ok()) return;
      const ProbeTag tag = std::get<core::ProbeMsg>(*msg).tag;
      if (tag.initiator.value() != to) return;
      const MutexLock lock(ring_.mu);
      if (!ring_.busy || ring_initiator_ != to ||
          tag.sequence != ring_.inflight_seq) {
        return;
      }
      if (ring_.complete()) start_ring();
    }
  }

  /// Waits (up to 5 s) until no frame is in flight.  The transports reject
  /// a send() from a handler still running at stop(), and trailing frames
  /// -- a churn probe behind its reply, a WFGD set -- outlive the lanes.
  bool settle() {
    const std::int64_t until = deadline_after(5.0);
    while (!transport_->quiescent()) {
      if (now_ns() >= until) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
  }

  bool wait_idle(std::chrono::milliseconds max) {
    const std::int64_t until = now_ns() + max.count() * 1'000'000;
    while (now_ns() < until) {
      bool idle = true;
      for (Lane& l : pairs_) {
        const MutexLock lock(l.mu);
        idle = idle && !l.busy;
      }
      {
        const MutexLock lock(ring_.mu);
        idle = idle && !ring_.busy;
      }
      if (idle) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

  [[nodiscard]] core::ProcessStats core_stats() const {
    core::ProcessStats t;
    for (std::uint32_t p = 0; p < kNodes; ++p) {
      const core::ProcessStats s = cluster_->stats(ProcessId{p});
      t.probes_sent += s.probes_sent;
      t.probes_received += s.probes_received;
      t.meaningful_probes += s.meaningful_probes;
      t.computations_initiated += s.computations_initiated;
      t.wfgd_messages_sent += s.wfgd_messages_sent;
    }
    return t;
  }

  [[nodiscard]] net::TransportIoStats io_stats() const {
    return tcp_inner_ ? tcp_inner_->io_stats() : net::TransportIoStats{};
  }

  const bool traced_;
  std::uint32_t ring_start_{0};
  std::array<std::uint32_t, kPairs> pair_order_{};
  std::unique_ptr<net::TcpTransport> tcp_inner_;
  std::unique_ptr<net::InMemoryTransport> mem_inner_;
  std::unique_ptr<TimedTransport> transport_;
  std::unique_ptr<runtime::ThreadedCluster> cluster_;
  std::array<Lane, kPairs> pairs_;
  Lane ring_;
  std::uint32_t ring_started_ CMH_GUARDED_BY(ring_.mu){0};
  NodeId ring_initiator_ CMH_GUARDED_BY(ring_.mu){0};
  Mutex calls_mu_;
  TimeAcc calls_ CMH_GUARDED_BY(calls_mu_);
};

Report run_mixed(const Args& args, double seconds, bool traced, bool tcp) {
  std::vector<double> setups;
  std::unique_ptr<Mixed> mixed;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    mixed.reset();
    release_freed_memory();
    mixed = std::make_unique<Mixed>(tcp, traced,
                                    args.seed + static_cast<std::uint64_t>(i));
    mixed->wedge();
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const double rss_mb = peak_rss_mb();
  Report rep = mixed->measure(seconds);
  rep.e2e["setup_s"] = median(setups);
  rep.e2e["peak_rss_mb"] = rss_mb;
  return rep;
}

}  // namespace

Report run_tcp_mixed(const Args& args, double seconds, bool traced) {
  return run_mixed(args, seconds, traced, /*tcp=*/true);
}

Report run_inmem_mixed(const Args& args, double seconds, bool traced) {
  return run_mixed(args, seconds, traced, /*tcp=*/false);
}

}  // namespace cmh::perfbench
