// ThreadedCluster over real threads: in-memory channels and TCP sockets.
#include "runtime/threaded_cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/logging.h"
#include "core/messages.h"
#include "net/inmemory_transport.h"
#include "net/tcp_transport.h"

namespace cmh::runtime {
namespace {

using namespace std::chrono_literals;

core::Options manual_opts() {
  core::Options o;
  o.initiation = core::InitiationMode::kManual;
  return o;
}

template <typename TransportT>
void ring_detection_test(std::uint32_t n) {
  TransportT transport;
  ThreadedCluster cluster(transport, n, core::Options{});
  // Build the ring; each request fires an on-request probe computation.
  for (std::uint32_t i = 0; i < n; ++i) {
    cluster.request(ProcessId{i}, ProcessId{(i + 1) % n});
  }
  const auto declarer = cluster.wait_for_detection(5000ms);
  ASSERT_TRUE(declarer.has_value());
  EXPECT_TRUE(cluster.declared(*declarer));
  EXPECT_TRUE(cluster.deadlocked(*declarer));
  cluster.stop();
}

TEST(ThreadedCluster, InMemoryRingDetected) {
  ring_detection_test<net::InMemoryTransport>(4);
}

TEST(ThreadedCluster, InMemoryLargerRingDetected) {
  ring_detection_test<net::InMemoryTransport>(16);
}

TEST(ThreadedCluster, TcpRingDetected) {
  ring_detection_test<net::TcpTransport>(4);
}

TEST(ThreadedCluster, TcpLargerRingDetected) {
  ring_detection_test<net::TcpTransport>(10);
}

TEST(ThreadedCluster, NoDetectionOnAcyclicChain) {
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 5, core::Options{});
  for (std::uint32_t i = 0; i + 1 < 5; ++i) {
    cluster.request(ProcessId{i}, ProcessId{i + 1});
  }
  EXPECT_EQ(cluster.wait_for_detection(300ms), std::nullopt);
  EXPECT_EQ(cluster.detection_count(), 0u);
  cluster.stop();
}

TEST(ThreadedCluster, ReplyUnblocksAndNoFalseDetection) {
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 2, manual_opts());
  cluster.request(ProcessId{0}, ProcessId{1});
  // Reply as soon as the request lands (retry while it is in flight).
  bool replied = false;
  for (int i = 0; i < 1000 && !replied; ++i) {
    try {
      cluster.reply(ProcessId{1}, ProcessId{0});
      replied = true;
    } catch (const core::ModelViolation&) {
      std::this_thread::sleep_for(1ms);  // request not delivered yet
    }
  }
  ASSERT_TRUE(replied);
  EXPECT_EQ(cluster.wait_for_detection(200ms), std::nullopt);
  cluster.stop();
}

TEST(ThreadedCluster, ManualInitiateDetectsWedgedRing) {
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 3, manual_opts());
  cluster.request(ProcessId{0}, ProcessId{1});
  cluster.request(ProcessId{1}, ProcessId{2});
  cluster.request(ProcessId{2}, ProcessId{0});
  // Let requests propagate, then initiate; retry while edges are grey.
  std::optional<ProcessId> declarer;
  for (int attempt = 0; attempt < 50 && !declarer; ++attempt) {
    std::this_thread::sleep_for(5ms);
    (void)cluster.initiate(ProcessId{0});
    declarer = cluster.wait_for_detection(100ms);
  }
  ASSERT_TRUE(declarer.has_value());
  EXPECT_EQ(*declarer, ProcessId{0});
  cluster.stop();
}

TEST(ThreadedCluster, WfgdPropagatesOverThreads) {
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 4, core::Options{});
  for (std::uint32_t i = 0; i < 4; ++i) {
    cluster.request(ProcessId{i}, ProcessId{(i + 1) % 4});
  }
  ASSERT_TRUE(cluster.wait_for_detection(5000ms).has_value());
  // Eventually every ring member learns all 4 cycle edges.
  bool all_complete = false;
  for (int attempt = 0; attempt < 500 && !all_complete; ++attempt) {
    std::this_thread::sleep_for(2ms);
    all_complete = true;
    for (std::uint32_t i = 0; i < 4; ++i) {
      if (cluster.wfgd_edges(ProcessId{i}).size() != 4) all_complete = false;
    }
  }
  EXPECT_TRUE(all_complete);
  cluster.stop();
}

TEST(ThreadedCluster, DelayedInitiationOverThreads) {
  core::Options o;
  o.initiation = core::InitiationMode::kDelayed;
  o.initiation_delay = SimTime::ms(20);
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 2, o);
  cluster.request(ProcessId{0}, ProcessId{1});
  cluster.request(ProcessId{1}, ProcessId{0});
  const auto declarer = cluster.wait_for_detection(5000ms);
  ASSERT_TRUE(declarer.has_value());
  cluster.stop();
}

TEST(ThreadedCluster, StopIsIdempotentAndJoins) {
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 3, core::Options{});
  cluster.request(ProcessId{0}, ProcessId{1});
  cluster.stop();
  cluster.stop();
  SUCCEED();
}

/// Forwards to an InMemoryTransport and calls hooks from inside the
/// cluster's threads: `on_send` on the thread that sends (a handler, a
/// timer callback or the application), `on_deliver` on the loop thread
/// after the cluster's handler returns.  Set both before the first send.
class HookedTransport final : public net::Transport {
 public:
  std::function<void(BytesView payload)> on_send = [](BytesView) {};
  std::function<void(net::NodeId to)> on_deliver = [](net::NodeId) {};

  net::NodeId add_node(Handler handler) override {
    return inner_.add_node(wrap(nodes_++, std::move(handler)));
  }
  void set_handler(net::NodeId node, Handler handler) override {
    inner_.set_handler(node, wrap(node, std::move(handler)));
  }
  void send(net::NodeId from, net::NodeId to, BytesView payload) override {
    on_send(payload);
    inner_.send(from, to, payload);
  }
  void start() override { inner_.start(); }
  void stop() override { inner_.stop(); }

 private:
  Handler wrap(net::NodeId node, Handler handler) {
    return [this, node, handler = std::move(handler)](
               net::NodeId from, const Bytes& payload) {
      handler(from, payload);
      on_deliver(node);
    };
  }

  net::InMemoryTransport inner_;
  net::NodeId nodes_{0};
};

bool eventually(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  return done();
}

// A stop() refused inside a handler must leave the cluster untouched, so
// the owner's later stop() still stops delivery.
TEST(ThreadedCluster, StopRefusedInHandlerChangesNothing) {
  HookedTransport transport;
  ThreadedCluster* cluster_ptr = nullptr;
  std::atomic<int> delivered{0};
  std::atomic<bool> refused{false};
  transport.on_deliver = [&](net::NodeId) {
    if (delivered.fetch_add(1) != 0) return;
    try {
      cluster_ptr->stop();
    } catch (const std::logic_error&) {
      refused = true;
    }
  };
  ThreadedCluster cluster(transport, 2, manual_opts());
  cluster_ptr = &cluster;
  cluster.request(ProcessId{0}, ProcessId{1});
  ASSERT_TRUE(eventually([&] { return refused.load(); }));

  cluster.stop();
  transport.send(0, 1, core::encode(core::ReplyMsg{}).view());
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(delivered.load(), 1);  // the frame sent after stop() is dropped
}

// Likewise from a timer callback: there stop() would join the timer loop
// from its own thread.  The refusal stops nothing; the ring still gets
// detected by the timers that keep running.
TEST(ThreadedCluster, StopRefusedInTimerCallbackChangesNothing) {
  core::Options o;
  o.initiation = core::InitiationMode::kDelayed;
  o.initiation_delay = SimTime::ms(5);
  HookedTransport transport;
  ThreadedCluster* cluster_ptr = nullptr;
  std::atomic<bool> tried{false};
  std::atomic<bool> refused{false};
  // The first probe is sent by an initiation timer, on the timer loop.
  transport.on_send = [&](BytesView payload) {
    if (payload[0] != core::wire::kProbe || tried.exchange(true)) return;
    try {
      cluster_ptr->stop();
    } catch (const std::logic_error&) {
      refused = true;
    }
  };
  ThreadedCluster cluster(transport, 2, o);
  cluster_ptr = &cluster;
  cluster.request(ProcessId{0}, ProcessId{1});
  cluster.request(ProcessId{1}, ProcessId{0});
  EXPECT_TRUE(cluster.wait_for_detection(5000ms).has_value());
  EXPECT_TRUE(refused.load());
  cluster.stop();
}

TEST(ThreadedCluster, UndecodableFrameIsLoggedAndDropped) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  {
    net::InMemoryTransport transport;
    ThreadedCluster cluster(transport, 4, core::Options{});
    transport.send(3, 0, Bytes{0xff, 0xee});
    for (std::uint32_t i = 0; i < 4; ++i) {
      cluster.request(ProcessId{i}, ProcessId{(i + 1) % 4});
    }
    EXPECT_TRUE(cluster.wait_for_detection(5000ms).has_value());
    cluster.stop();
  }
  const std::string err = testing::internal::GetCapturedStderr();
  set_log_level(saved);
  EXPECT_NE(err.find("[runtime] dropped undecodable frame 3 -> 0"),
            std::string::npos)
      << err;
}

std::size_t thread_count() {
  // Sanitizer runtimes start a helper thread along with the process's
  // first extra thread; spawning one first keeps it out of the deltas.
  static const bool warmed = [] {
    std::thread([] {}).join();
    return true;
  }();
  (void)warmed;
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), end(tasks)));
}

// On either threaded transport a cluster of any size costs the transport's
// L loop threads plus the timer loop, and stop() gives all of them back.
void expect_loops_plus_one(net::Transport& transport, std::size_t loops,
                           std::size_t baseline) {
  {
    ThreadedCluster cluster(transport, 16, core::Options{});
    EXPECT_EQ(thread_count(), baseline + loops + 1);
    cluster.stop();
  }
  // A joined thread can linger in /proc for a moment after join().
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (thread_count() != baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(thread_count(), baseline);
}

TEST(ThreadedCluster, TcpThreadCountIsLoopsPlusOne) {
  constexpr unsigned kLoops = 2;
  const std::size_t baseline = thread_count();
  net::TcpTransportConfig config;
  config.event_loops = kLoops;
  net::TcpTransport transport(config);
  expect_loops_plus_one(transport, kLoops, baseline);
}

TEST(ThreadedCluster, InMemoryThreadCountIsLoopsPlusOne) {
  const std::size_t baseline = thread_count();
  net::InMemoryTransport transport;
  expect_loops_plus_one(transport, net::EventLoopPool::default_size(),
                        baseline);
}

}  // namespace
}  // namespace cmh::runtime
