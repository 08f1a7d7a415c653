#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <ctime>
#include <stdexcept>
#include <string>
#include <utility>

namespace cmh::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error("EventLoop: epoll_create1() failed");
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::runtime_error("EventLoop: eventfd() failed");
  }
  // The wake fd is the one registration with a null data pointer; the loop
  // special-cases it instead of carrying a Pollable for it.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::start() {
  const MutexLock lock(join_mutex_);
  thread_ = std::thread([this] { run(); });
  thread_id_ = thread_.get_id();
}

void EventLoop::stop() {
  if (!stopping_.exchange(true)) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
  const MutexLock lock(join_mutex_);
  if (thread_.joinable()) thread_.join();
}

bool EventLoop::post(std::function<void()> task) {
  bool wake = false;
  {
    const MutexLock lock(tasks_mutex_);
    if (stopping_) return false;  // loop is (or is about to be) gone; drop
    tasks_.push_back(std::move(task));
    if (!wake_pending_) {
      wake_pending_ = true;
      wake = true;
    }
  }
  if (wake) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
  return true;
}

bool EventLoop::post_after(std::chrono::steady_clock::duration delay,
                           std::function<void()> task) {
  const TimePoint at = std::chrono::steady_clock::now() + delay;
  return post([this, at, task = std::move(task)]() mutable {
    timers_.emplace(at, std::move(task));  // after equal deadlines: FIFO
  });
}

bool EventLoop::on_loop_thread() const {
  return thread_id_ == std::this_thread::get_id();
}

void EventLoop::add(std::shared_ptr<Pollable> p, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = p.get();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, p->fd_, &ev) != 0) {
    ::close(p->fd_);
    p->closed_ = true;
    return;
  }
  registry_.push_back(std::move(p));
}

void EventLoop::set_events(Pollable& p, std::uint32_t events) {
  if (p.closed_) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = &p;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, p.fd_, &ev);
}

void EventLoop::destroy(Pollable& p) {
  if (p.closed_) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p.fd_, nullptr);
  ::close(p.fd_);
  p.closed_ = true;
  for (auto it = registry_.begin(); it != registry_.end(); ++it) {
    if (it->get() == &p) {
      graveyard_.push_back(std::move(*it));
      registry_.erase(it);
      break;
    }
  }
}

void EventLoop::drain_wake() const {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n =
      ::read(wake_fd_, &count, sizeof(count));  // nonblocking; resets to 0
}

void EventLoop::fire_due_timers() {
  if (timers_.empty()) return;  // the transports' loops: no clock read
  const TimePoint now = std::chrono::steady_clock::now();
  // A timer that schedules another goes through post(), so nothing joins
  // the map during this pass and the pass always ends.
  while (!timers_.empty() && timers_.begin()->first <= now) {
    auto due = timers_.extract(timers_.begin());
    due.mapped()();
  }
}

void EventLoop::run() {
  std::vector<epoll_event> events(128);
  std::vector<std::function<void()>> tasks;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Anything destroyed during the previous batch has now outlived every
    // event fetched alongside it; release for real.
    graveyard_.clear();

    // Sleep until the earliest timer is due; with none, until woken.
    timespec timeout{};
    if (!timers_.empty()) {
      const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
          timers_.begin()->first - std::chrono::steady_clock::now());
      const std::int64_t ns = std::max<std::int64_t>(left.count(), 0);
      timeout.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
      timeout.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    }
    const int n = ::epoll_pwait2(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()),
                                 timers_.empty() ? nullptr : &timeout,
                                 /*sigmask=*/nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself is broken; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      void* ptr = events[static_cast<std::size_t>(i)].data.ptr;
      if (ptr == nullptr) {
        drain_wake();
        continue;
      }
      auto* pollable = static_cast<Pollable*>(ptr);
      if (pollable->closed_) continue;  // destroyed earlier in this batch
      pollable->on_events(events[static_cast<std::size_t>(i)].events);
    }

    {
      const MutexLock lock(tasks_mutex_);
      tasks.swap(tasks_);
      wake_pending_ = false;
    }
    for (auto& task : tasks) task();
    tasks.clear();
    fire_due_timers();

    if (n == static_cast<int>(events.size())) events.resize(events.size() * 2);
  }
  // Loop-thread teardown: close every fd we still own.  Handlers never run
  // again; the transport joins us before touching any shared state.
  graveyard_.clear();
  for (auto& p : registry_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p->fd_, nullptr);
    ::close(p->fd_);
    p->closed_ = true;
  }
  registry_.clear();
  // Tasks that were accepted by post() but not yet run still execute (they
  // observe the closed registry) so a poster blocking on one cannot hang.
  {
    const MutexLock lock(tasks_mutex_);
    tasks.swap(tasks_);
  }
  for (auto& task : tasks) task();
  timers_.clear();
}

// ---- EventLoopPool ----------------------------------------------------------

EventLoopPool::EventLoopPool(unsigned size) {
  if (size == 0) size = default_size();
  for (unsigned i = 0; i < size; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
  }
}

unsigned EventLoopPool::default_size() {
  return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

void EventLoopPool::start() {
  for (auto& loop : loops_) loop->start();
}

void EventLoopPool::stop() {
  for (auto& loop : loops_) loop->stop();
}

void EventLoopPool::refuse_on_loop_thread(const char* what) const {
  for (const auto& loop : loops_) {
    if (loop->on_loop_thread()) {
      throw std::logic_error(
          std::string(what) +
          ": called on an event-loop thread (from inside a handler), "
          "which would wait on the loop it is blocking");
    }
  }
}

}  // namespace cmh::net
