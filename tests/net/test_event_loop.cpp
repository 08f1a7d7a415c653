// EventLoop on its own: posted tasks and post_after() wall-clock timers.
#include "net/event_loop.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace cmh::net {
namespace {

using namespace std::chrono_literals;
using SteadyTime = std::chrono::steady_clock::time_point;

/// Labels in the order the loop ran them, with a waitable count.
class RunLog {
 public:
  void add(int label) {
    const MutexLock lock(mutex_);
    labels_.push_back(label);
    cv_.notify_all();
  }

  bool wait_for(std::size_t n, std::chrono::milliseconds max = 5000ms) {
    const MutexLock lock(mutex_);
    return cv_.wait_for(mutex_, max, [&] {
      mutex_.assert_held();  // held by CondVar::wait's contract
      return labels_.size() >= n;
    });
  }

  std::vector<int> labels() {
    const MutexLock lock(mutex_);
    return labels_;
  }

 private:
  Mutex mutex_;
  CondVar cv_;
  std::vector<int> labels_ CMH_GUARDED_BY(mutex_);
};

std::vector<int> iota(int n) {
  std::vector<int> v;
  for (int i = 0; i < n; ++i) v.push_back(i);
  return v;
}

TEST(EventLoop, PostRunsTasksInOrderOnTheLoopThread) {
  EventLoop loop;
  loop.start();
  EXPECT_FALSE(loop.on_loop_thread());
  RunLog log;
  std::atomic<bool> all_on_loop{true};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(loop.post([&, i] {
      if (!loop.on_loop_thread()) all_on_loop = false;
      log.add(i);
    }));
  }
  ASSERT_TRUE(log.wait_for(100));
  EXPECT_EQ(log.labels(), iota(100));
  EXPECT_TRUE(all_on_loop.load());
  loop.stop();
}

TEST(EventLoop, PostAfterStopReturnsFalse) {
  EventLoop loop;
  loop.start();
  loop.stop();
  loop.stop();  // idempotent
  EXPECT_FALSE(loop.post([] {}));
  EXPECT_FALSE(loop.post_after(1ms, [] {}));
}

TEST(EventLoop, TasksAcceptedBeforeStopStillRun) {
  EventLoop loop;
  loop.start();
  std::atomic<bool> blocking{false};
  std::atomic<int> ran{0};
  // Hold the loop in one task so the next ones are still queued when
  // stop() is requested.
  ASSERT_TRUE(loop.post([&] {
    blocking = true;
    std::this_thread::sleep_for(50ms);
  }));
  while (!blocking) std::this_thread::yield();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(loop.post([&] { ++ran; }));
  loop.stop();
  EXPECT_EQ(ran.load(), 10);
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  loop.start();
  RunLog log;
  // Scheduled from one task, so all three reach the deadline map in one
  // batch however late this thread runs.
  ASSERT_TRUE(loop.post([&] {
    loop.post_after(30ms, [&] { log.add(3); });
    loop.post_after(10ms, [&] { log.add(1); });
    loop.post_after(20ms, [&] { log.add(2); });
  }));
  ASSERT_TRUE(log.wait_for(3, 2000ms));
  // A 10 s timer waiting in the map: an earlier deadline inserted later
  // must shorten the loop's wait.
  ASSERT_TRUE(loop.post_after(10s, [&] { log.add(99); }));
  ASSERT_TRUE(loop.post_after(5ms, [&] { log.add(4); }));
  ASSERT_TRUE(log.wait_for(4, 2000ms));
  EXPECT_EQ(log.labels(), (std::vector<int>{1, 2, 3, 4}));
  loop.stop();
}

TEST(EventLoop, EqualDelaysFireInScheduleOrder) {
  EventLoop loop;
  loop.start();
  RunLog log;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(loop.post_after(5ms, [&, i] { log.add(i); }));
  }
  ASSERT_TRUE(log.wait_for(50));
  EXPECT_EQ(log.labels(), iota(50));
  loop.stop();
}

TEST(EventLoop, TimerNeverFiresBeforeItsDeadline) {
  EventLoop loop;
  loop.start();
  const std::vector<std::chrono::microseconds> delays{0us, 100us, 300us,
                                                      1ms, 5ms};
  for (const auto delay : delays) {
    std::atomic<std::int64_t> fired_ns{-1};
    const SteadyTime before = std::chrono::steady_clock::now();
    ASSERT_TRUE(loop.post_after(delay, [&] {
      fired_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - before)
                     .count();
    }));
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (fired_ns < 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(50us);
    }
    ASSERT_GE(fired_ns.load(), 0) << "timer never fired";
    EXPECT_GE(fired_ns.load(),
              std::chrono::duration_cast<std::chrono::nanoseconds>(delay)
                  .count());
  }
  loop.stop();
}

TEST(EventLoop, TimersScheduledFromOtherThreadsAndFromTasks) {
  EventLoop loop;
  loop.start();
  RunLog log;
  std::thread other([&] {
    EXPECT_TRUE(loop.post_after(1ms, [&] { log.add(1); }));
  });
  other.join();
  ASSERT_TRUE(log.wait_for(1));
  // From inside a task, and from inside a timer callback.
  ASSERT_TRUE(loop.post([&] {
    EXPECT_TRUE(loop.post_after(1ms, [&] {
      log.add(2);
      EXPECT_TRUE(loop.post_after(0ms, [&] { log.add(3); }));
    }));
  }));
  ASSERT_TRUE(log.wait_for(3));
  EXPECT_EQ(log.labels(), (std::vector<int>{1, 2, 3}));
  loop.stop();
}

TEST(EventLoop, StopDropsPendingTimers) {
  EventLoop loop;
  loop.start();
  std::atomic<bool> fired{false};
  auto token = std::make_shared<int>(0);
  ASSERT_TRUE(loop.post_after(10s, [&fired, token] { fired = true; }));
  // Ensure the timer reached the deadline map before stopping.
  RunLog log;
  ASSERT_TRUE(loop.post([&] { log.add(0); }));
  ASSERT_TRUE(log.wait_for(1));
  const SteadyTime before = std::chrono::steady_clock::now();
  loop.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - before, 5s);
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(token.use_count(), 1);  // the dropped closure was destroyed
}

}  // namespace
}  // namespace cmh::net
