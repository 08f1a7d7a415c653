// Transport conformance suite: every threaded transport must honor the
// paper's communication model (reliable, per-channel FIFO, finite delay)
// plus the interface contracts the runtime layer leans on -- zero-length
// payloads, large frames, per-node handler serialization (atomic steps),
// and a stop() that is safe under concurrent traffic.  The same test body
// runs against every threaded implementation via a typed fixture, so a new
// transport cannot pass review without passing the model.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "net/inmemory_transport.h"
#include "net/tcp_transport.h"

namespace cmh::net {
namespace {

using namespace std::chrono_literals;

class Collector {
 public:
  Transport::Handler handler() {
    return [this](NodeId from, const Bytes& payload) {
      const MutexLock lock(mutex_);
      items_.emplace_back(from, payload);
      cv_.notify_all();
    };
  }

  bool wait_for(std::size_t n, std::chrono::milliseconds max = 10000ms) {
    const MutexLock lock(mutex_);
    return cv_.wait_for(mutex_, max, [&] {
      mutex_.assert_held();  // held by CondVar::wait's contract
      return items_.size() >= n;
    });
  }

  std::vector<std::pair<NodeId, Bytes>> items() {
    const MutexLock lock(mutex_);
    return items_;
  }

 private:
  Mutex mutex_;
  CondVar cv_;
  std::vector<std::pair<NodeId, Bytes>> items_ CMH_GUARDED_BY(mutex_);
};

template <typename TransportT>
class TransportConformance : public ::testing::Test {};

struct TransportNames {
  template <typename T>
  static std::string GetName(int) {
    if (std::is_same_v<T, InMemoryTransport>) return "InMemory";
    if (std::is_same_v<T, TcpTransport>) return "EpollTcp";
    return "Unknown";
  }
};

using TransportTypes = ::testing::Types<InMemoryTransport, TcpTransport>;
TYPED_TEST_SUITE(TransportConformance, TransportTypes, TransportNames);

// Per-channel FIFO with concurrent senders: interleaving across threads is
// unspecified, but each thread's own frames must arrive as an increasing
// subsequence (every send returns before that thread's next begins).
TYPED_TEST(TransportConformance, PerChannelFifoUnderConcurrentSenders) {
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 250;
  TypeParam t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();

  std::vector<std::thread> senders;
  for (int k = 0; k < kThreads; ++k) {
    senders.emplace_back([&, k] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        Bytes payload(5);
        payload[0] = static_cast<std::uint8_t>(k);
        std::memcpy(payload.data() + 1, &i, sizeof(i));
        t.send(a, b, payload);
      }
    });
  }
  for (auto& th : senders) th.join();
  ASSERT_TRUE(c.wait_for(kThreads * kPerThread));

  std::map<int, std::uint32_t> next_seq;
  for (const auto& [from, payload] : c.items()) {
    EXPECT_EQ(from, a);
    ASSERT_EQ(payload.size(), 5u);
    const int thread = payload[0];
    std::uint32_t seq = 0;
    std::memcpy(&seq, payload.data() + 1, sizeof(seq));
    EXPECT_EQ(seq, next_seq[thread]) << "thread " << thread;
    next_seq[thread] = seq + 1;
  }
  for (int k = 0; k < kThreads; ++k) EXPECT_EQ(next_seq[k], kPerThread);
  t.stop();
}

// Zero-length payloads are legal frames and keep their FIFO slot.
TYPED_TEST(TransportConformance, ZeroLengthPayloadsKeepTheirSlot) {
  TypeParam t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();
  constexpr int kFrames = 20;
  for (int i = 0; i < kFrames; ++i) {
    if (i % 2 == 0) {
      t.send(a, b, Bytes{});
    } else {
      t.send(a, b, Bytes{static_cast<std::uint8_t>(i)});
    }
  }
  ASSERT_TRUE(c.wait_for(kFrames));
  const auto items = c.items();
  for (int i = 0; i < kFrames; ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(items[i].second.empty()) << "frame " << i;
    } else {
      ASSERT_EQ(items[i].second.size(), 1u) << "frame " << i;
      EXPECT_EQ(items[i].second[0], static_cast<std::uint8_t>(i));
    }
  }
  t.stop();
}

// Multi-megabyte frames (a sizeable fraction of kMaxFrameBytes) round-trip
// bit-exactly, including one queued burst of them on a single channel.
TYPED_TEST(TransportConformance, LargeFramesRoundTrip) {
  TypeParam t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();
  constexpr std::size_t kSize = 8u << 20;  // 8 MiB
  std::vector<Bytes> sent;
  for (std::size_t k = 0; k < 3; ++k) {
    Bytes big(kSize + k);  // distinct sizes catch framing off-by-ones
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>(i * 31 + k);
    }
    t.send(a, b, big);
    sent.push_back(std::move(big));
  }
  ASSERT_TRUE(c.wait_for(sent.size()));
  const auto items = c.items();
  for (std::size_t k = 0; k < sent.size(); ++k) {
    EXPECT_EQ(items[k].second, sent[k]) << "frame " << k;
  }
  t.stop();
}

// stop() must be safe while senders are still blasting: no crash, no hang,
// no delivery after stop() returns.  Senders are bounded (not an infinite
// loop) so the test ends even on a transport whose stop() delivers what
// was queued before it.
TYPED_TEST(TransportConformance, StopDuringHeavyTraffic) {
  constexpr std::uint64_t kPerSender = 20000;
  TypeParam t;
  std::atomic<std::uint64_t> delivered{0};
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(
      [&](NodeId, const Bytes&) { delivered.fetch_add(1); });
  t.start();

  std::vector<std::thread> senders;
  for (int k = 0; k < 4; ++k) {
    senders.emplace_back([&] {
      const Bytes payload(64, 0x5a);
      for (std::uint64_t i = 0; i < kPerSender; ++i) t.send(a, b, payload);
    });
  }
  // Pull the plug under load: far more frames remain in flight than have
  // been delivered, and the senders are still running.
  while (delivered.load() < 1000) std::this_thread::yield();
  t.stop();
  const std::uint64_t at_stop = delivered.load();
  for (auto& th : senders) th.join();  // sends after stop() must be benign
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(delivered.load(), at_stop) << "delivery after stop() returned";
}

// The paper's atomic-step requirement: one node's handler is never invoked
// concurrently with itself, even with many nodes sending to it at once.
TYPED_TEST(TransportConformance, HandlerNeverConcurrentWithItself) {
  constexpr std::uint32_t kSenders = 4;
  constexpr int kPerSender = 200;
  TypeParam t;
  std::atomic<int> in_handler{0};
  std::atomic<int> overlaps{0};
  std::atomic<int> delivered{0};
  const NodeId sink = t.add_node([&](NodeId, const Bytes&) {
    if (in_handler.fetch_add(1) != 0) overlaps.fetch_add(1);
    std::this_thread::yield();  // widen the window an overlap would need
    in_handler.fetch_sub(1);
    delivered.fetch_add(1);
  });
  std::vector<NodeId> sources;
  for (std::uint32_t k = 0; k < kSenders; ++k) sources.push_back(t.add_node({}));
  t.start();

  std::vector<std::thread> senders;
  for (const NodeId src : sources) {
    senders.emplace_back([&, src] {
      for (int i = 0; i < kPerSender; ++i) t.send(src, sink, Bytes{1});
    });
  }
  for (auto& th : senders) th.join();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (delivered.load() < static_cast<int>(kSenders) * kPerSender &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(delivered.load(), static_cast<int>(kSenders) * kPerSender);
  EXPECT_EQ(overlaps.load(), 0);
  t.stop();
}

// Handlers that send: each token is relayed by the handlers themselves
// along a path that visits every node, so a handler's send() must work
// from whatever thread the transport runs it on -- including a TCP event
// loop sending to a node that loop also owns, and a node sending to
// itself.  Every token must arrive, each hop's channel must stay FIFO, and
// nothing may hang.
TYPED_TEST(TransportConformance, HandlersRelayAcrossNodes) {
  // 0 -> 0 is a self-send; 0 -> 4 stays on one loop when the loop count L
  // divides 4 (1, 2, 4 -- the default is min(4, cores)), 4 -> 1 when L is
  // 1 or 3.  The test thread injects on 7 -> 0.
  const std::vector<NodeId> path = {0, 0, 4, 1, 5, 2, 6, 3, 7};
  constexpr NodeId kNodes = 8;
  constexpr std::uint32_t kTokens = 300;
  TypeParam t;
  Collector arrived;
  Mutex mutex;
  std::map<std::pair<NodeId, NodeId>, std::uint32_t> next_seq;  // by mutex
  std::atomic<int> fifo_breaks{0};
  std::atomic<int> misroutes{0};

  for (NodeId self = 0; self < kNodes; ++self) {
    const NodeId id = t.add_node([&, self](NodeId from, const Bytes& payload) {
      std::uint32_t seq = 0;
      std::memcpy(&seq, payload.data(), sizeof(seq));
      const std::size_t hop = payload[sizeof(seq)];
      {
        const MutexLock lock(mutex);
        std::uint32_t& expected = next_seq[{from, self}];
        if (seq != expected) fifo_breaks.fetch_add(1);
        expected = seq + 1;
      }
      if (path[hop] != self) misroutes.fetch_add(1);
      if (hop + 1 == path.size()) {
        arrived.handler()(from, payload);
        return;
      }
      Bytes next = payload;
      next[sizeof(seq)] = static_cast<std::uint8_t>(hop + 1);
      t.send(self, path[hop + 1], next);
    });
    ASSERT_EQ(id, self);
  }
  t.start();

  for (std::uint32_t seq = 0; seq < kTokens; ++seq) {
    Bytes token(sizeof(seq) + 1, 0);
    std::memcpy(token.data(), &seq, sizeof(seq));
    t.send(kNodes - 1, path[0], token);
  }
  ASSERT_TRUE(arrived.wait_for(kTokens));
  const auto items = arrived.items();
  ASSERT_EQ(items.size(), kTokens);
  for (std::uint32_t seq = 0; seq < kTokens; ++seq) {
    std::uint32_t got = 0;
    std::memcpy(&got, items[seq].second.data(), sizeof(got));
    EXPECT_EQ(got, seq) << "end-to-end order";
    EXPECT_EQ(items[seq].first, path[path.size() - 2]);
  }
  EXPECT_EQ(fifo_breaks.load(), 0);
  EXPECT_EQ(misroutes.load(), 0);
  t.stop();
}

// Both ends of a send are checked: a frame from an unknown node must not
// reach a handler under a sender id no node has.
TYPED_TEST(TransportConformance, SendWithUnknownEndpointThrows) {
  TypeParam t;
  Collector c;
  const NodeId a = t.add_node(c.handler());
  t.start();
  EXPECT_THROW(t.send(a, 42, Bytes{1}), std::out_of_range);
  EXPECT_THROW(t.send(42, a, Bytes{1}), std::out_of_range);
  t.send(a, a, Bytes{2});  // behind anything the refused sends queued
  ASSERT_TRUE(c.wait_for(1));
  const auto items = c.items();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].first, a);
  EXPECT_EQ(items[0].second, Bytes{2});
  t.stop();
}

// Handlers run on transport threads, so stop() from inside one would join
// the thread it runs on.  It refuses with a logic_error instead, and the
// transport keeps delivering.
TYPED_TEST(TransportConformance, StopFromHandlerRefused) {
  TypeParam t;
  Mutex mutex;
  CondVar cv;
  std::vector<std::string> errors;  // guarded by mutex
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node([&](NodeId, const Bytes&) {
    std::string what = "no exception";
    try {
      t.stop();
    } catch (const std::logic_error& e) {
      what = e.what();
    }
    const MutexLock lock(mutex);
    errors.push_back(what);
    cv.notify_all();
  });
  t.start();
  t.send(a, b, Bytes{1});
  t.send(a, b, Bytes{2});  // delivered after the refusal: the loop lives on
  {
    const MutexLock lock(mutex);
    ASSERT_TRUE(cv.wait_for(mutex, 10000ms, [&] {
      mutex.assert_held();  // held by CondVar::wait's contract
      return errors.size() >= 2;
    }));
    for (const auto& what : errors) {
      EXPECT_NE(what.find("event-loop thread"), std::string::npos) << what;
    }
  }
  t.stop();  // still completes from the test thread
}

}  // namespace
}  // namespace cmh::net
