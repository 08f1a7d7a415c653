#include "runtime/threaded_cluster.h"

#include <stdexcept>

#include "common/logging.h"

namespace cmh::runtime {

ThreadedCluster::ThreadedCluster(net::Transport& transport, std::uint32_t n,
                                 core::Options options)
    : transport_(transport) {
  timers_.start();
  cells_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    cells_.push_back(std::make_unique<Cell>());
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const ProcessId id{i};
    Cell& cell = *cells_[i];
    // Built and wired while still thread-local, then published into the
    // cell; the pointee is only ever dereferenced under cell.mutex once the
    // transport starts.
    auto process = std::make_unique<core::BasicProcess>(
        id,
        [this, id](ProcessId to, BytesView payload) {
          transport_.send(id.value(), to.value(), payload);
        },
        options,
        [this, &cell](SimTime delay, std::function<void()> fn) {
          // The kDelayed timer calls back into BasicProcess and must not
          // race with message delivery: it runs under the cell's mutex.
          timers_.post_after(std::chrono::microseconds(delay.micros),
                             [&cell, fn = std::move(fn)] {
                               const MutexLock lock(cell.mutex);
                               fn();
                             });
        });
    process->set_deadlock_callback([this, id](const ProbeTag&) {
      {
        const MutexLock lock(detect_mutex_);
        detections_.push_back(id);
      }
      detect_cv_.notify_all();
    });
    cell.process = std::move(process);
    const auto node = transport_.add_node(
        [this, i](net::NodeId from, const Bytes& payload) {
          Cell& c = *cells_[i];
          const MutexLock lock(c.mutex);
          const auto st = c.process->on_message(ProcessId{from}, payload);
          if (!st.ok()) {
            CMH_LOG(kWarn, "runtime") << "dropped undecodable frame " << from
                                      << " -> " << i << ": "
                                      << st.to_string();
          }
        });
    if (node != i) {
      throw std::logic_error("ThreadedCluster: transport already had nodes");
    }
  }
  transport_.start();
}

ThreadedCluster::~ThreadedCluster() { stop(); }

void ThreadedCluster::stop() {
  if (timers_.on_loop_thread()) {
    throw std::logic_error(
        "ThreadedCluster::stop: called from a timer callback, which would "
        "wait on the timer loop it is blocking");
  }
  transport_.stop();  // refuses on a transport loop thread, changing nothing
  timers_.stop();
}

void ThreadedCluster::request(ProcessId from, ProcessId to) {
  Cell& cell = *cells_.at(from.value());
  const MutexLock lock(cell.mutex);
  cell.process->send_request(to);
}

void ThreadedCluster::reply(ProcessId from, ProcessId to) {
  Cell& cell = *cells_.at(from.value());
  const MutexLock lock(cell.mutex);
  cell.process->send_reply(to);
}

std::optional<ProbeTag> ThreadedCluster::initiate(ProcessId p) {
  Cell& cell = *cells_.at(p.value());
  const MutexLock lock(cell.mutex);
  return cell.process->initiate();
}

bool ThreadedCluster::deadlocked(ProcessId p) const {
  const Cell& cell = *cells_.at(p.value());
  const MutexLock lock(cell.mutex);
  return cell.process->deadlocked();
}

bool ThreadedCluster::declared(ProcessId p) const {
  const Cell& cell = *cells_.at(p.value());
  const MutexLock lock(cell.mutex);
  return cell.process->declared_deadlock();
}

core::ProcessStats ThreadedCluster::stats(ProcessId p) const {
  const Cell& cell = *cells_.at(p.value());
  const MutexLock lock(cell.mutex);
  return cell.process->stats();
}

std::set<graph::Edge> ThreadedCluster::wfgd_edges(ProcessId p) const {
  const Cell& cell = *cells_.at(p.value());
  const MutexLock lock(cell.mutex);
  const auto& edges = cell.process->wfgd_edges();
  return {edges.begin(), edges.end()};
}

std::optional<ProcessId> ThreadedCluster::wait_for_detection(
    std::chrono::milliseconds max) {
  const MutexLock lock(detect_mutex_);
  detect_cv_.wait_for(detect_mutex_, max, [&] {
    detect_mutex_.assert_held();  // held by CondVar::wait's contract
    return !detections_.empty();
  });
  if (detections_.empty()) return std::nullopt;
  return detections_.front();
}

std::size_t ThreadedCluster::detection_count() const {
  const MutexLock lock(detect_mutex_);
  return detections_.size();
}

}  // namespace cmh::runtime
