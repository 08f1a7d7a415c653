// Shared plumbing of the end-to-end benchmark: arguments, clocks, sample
// statistics, the metric sheet each workload fills in, and process probes
// (peak RSS, thread count).
//
// Every workload follows the same shape: set up (repeated, the median is
// `setup_s`), measure for the requested seconds, check its outputs, and
// report.  Tracing never reaches into src/: a traced run times the calls the
// benchmark itself makes into each layer (transport decorator, wrapped
// simulator handlers, timed calls from the benchmark itself).
#pragma once

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/basic_process.h"

namespace cmh::perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `v` (q in [0,1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// num / den as a double (counts are converted); 0 when den is 0.
template <typename Num, typename Den>
double ratio(Num num, Den den) {
  const auto d = static_cast<double>(den);
  return d == 0.0 ? 0.0 : static_cast<double>(num) / d;
}

/// The steady-clock instant `seconds` from now, in now_ns() units.
inline std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// Accumulated wall time and call count of one timed boundary.
struct TimeAcc {
  std::uint64_t ns{0};
  std::uint64_t calls{0};
  void add(std::int64_t d) {
    ns += static_cast<std::uint64_t>(d);
    ++calls;
  }
  void merge(const TimeAcc& o) {
    ns += o.ns;
    calls += o.calls;
  }
  [[nodiscard]] double mean_ns() const { return ratio(ns, calls); }
};

using MetricUnits = std::vector<std::pair<std::string, std::string>>;

/// Per-layer metric names, in the order BENCHMARK.json lists them.  Every
/// traced run prints all of them; a layer a workload does not exercise
/// reads 0 (README.md, "Per-layer metrics").  The tail.* entries are the
/// end-to-end p90s, kept unbounded here because they do not repeat within
/// any useful bound on a shared host; a traced run takes them from its
/// untraced phase.
inline const MetricUnits& layer_metric_units() {
  static const MetricUnits kUnits = {
      {"sim.events", "count"},
      {"sim.timers_fired", "count"},
      {"sim.messages", "count"},
      {"sim.busy_s", "s"},
      {"sim.ns_per_event", "ns"},
      {"sim.handler_share", "ratio"},
      {"core.on_message_ns", "ns"},
      {"core.probes_per_computation", "msgs"},
      {"core.meaningful_ratio", "ratio"},
      {"core.computations", "count"},
      {"core.wfgd_msgs", "count"},
      {"ddb.client_call_ns", "ns"},
      {"ddb.probes_per_declaration", "msgs"},
      {"ddb.declarations_per_computation", "ratio"},
      {"ddb.local_cycle_share", "ratio"},
      {"ddb.aborts_per_declaration", "ratio"},
      {"ddb.purges_per_commit", "ratio"},
      {"ddb.round_wall_growth", "ratio"},
      {"ddb.aborts_per_commit", "ratio"},
      {"ddb.lock_wait_p50_ms", "ms"},
      {"ddb.lock_wait_p99_ms", "ms"},
      {"ddb.resolve_p99_ms", "ms"},
      {"net.send_ns", "ns"},
      {"net.transit_p50_us", "us"},
      {"net.write_syscalls_per_frame", "ratio"},
      {"net.read_syscalls_per_frame", "ratio"},
      {"net.frames_dropped", "count"},
      {"net.bytes_per_op", "bytes"},
      {"runtime.handler_ns", "ns"},
      {"runtime.call_ns", "ns"},
      {"runtime.threads", "count"},
      {"gen.lag_p99_us", "us"},
      {"gen.late_frac", "ratio"},
      {"ledger.gap_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"tail.op_p90_us", "us"},
      {"tail.detect_p90_us", "us"},
  };
  return kUnits;
}

/// End-to-end metric names and units (BENCHMARK.json "end_to_end").
inline const MetricUnits& e2e_metric_units() {
  static const MetricUnits kUnits = {
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},     {"cpu_us_per_op", "us"},
      {"op_p50_us", "us"},      {"detect_p50_us", "us"},
      {"msgs_per_op", "msgs/op"},
  };
  return kUnits;
}

/// What one measured phase of a workload produced.
struct Report {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;
  /// End-to-end metric values (names from e2e_metric_units()).
  std::map<std::string, double> e2e;
  /// Per-layer values (names from layer_metric_units()); only traced
  /// phases fill the timed ones.
  std::map<std::string, double> layer;
  /// Workload-specific figures printed on the human-readable lines only.
  std::vector<std::pair<std::string, double>> notes;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  /// The wall-clock cost the tracing overhead is judged on: time per op for
  /// the closed-loop workloads, the latency p50 for the open-loop ones.
  double cost{0.0};
};

/// Reads a "Key:   <number> kB"-style field of /proc/self/status.
inline double proc_status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1));
    }
  }
  return 0.0;
}

/// CPU time (user + system) of the whole process, or of the calling thread.
inline double cpu_seconds(bool this_thread_only = false) {
  rusage ru{};
  getrusage(this_thread_only ? RUSAGE_THREAD : RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Hands memory freed by an earlier set-up back to the kernel, so that
/// peak_rss_mb measures one instance rather than the allocator's leftovers
/// from the set-ups repeated for setup_s.
inline void release_freed_memory() { malloc_trim(0); }

/// Peak resident set (VmHWM) in MB.  Workloads read it at the end of
/// set-up: SimCluster and ddb::Cluster keep every declaration, so memory read
/// later would grow with the work a run gets through, and a faster build
/// would read worse.
inline double peak_rss_mb() { return proc_status_field("VmHWM") / 1024.0; }
inline double thread_count() { return proc_status_field("Threads"); }

/// Fills the core.* per-layer metrics from two ProcessStats totals and
/// gates the paper's bound of at most N probes per computation (section 4).
inline void report_core(Report& rep, const core::ProcessStats& before,
                        const core::ProcessStats& after, std::uint32_t n) {
  const auto computations =
      after.computations_initiated - before.computations_initiated;
  const auto probes = after.probes_sent - before.probes_sent;
  if (probes > computations * n) {
    rep.fail("more than N probes per computation");
  }
  rep.layer["core.probes_per_computation"] = ratio(probes, computations);
  rep.layer["core.meaningful_ratio"] =
      ratio(after.meaningful_probes - before.meaningful_probes,
            after.probes_received - before.probes_received);
  rep.layer["core.computations"] = static_cast<double>(computations);
  rep.layer["core.wfgd_msgs"] =
      static_cast<double>(after.wfgd_messages_sent - before.wfgd_messages_sent);
}

// Workload entry points.  `traced` selects the timing wrappers; `seconds`
// is this phase's measuring budget (set-up excluded).
Report run_sim_wave(const Args& args, double seconds, bool traced);
Report run_ddb_hot(const Args& args, double seconds, bool traced);
Report run_tcp_mixed(const Args& args, double seconds, bool traced);
Report run_inmem_mixed(const Args& args, double seconds, bool traced);

}  // namespace cmh::perfbench
