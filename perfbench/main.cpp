// cmh_perfbench -- one end-to-end benchmark over four named workloads.
//
//   cmh_perfbench --workload <sim_wave|ddb_hot|tcp_mixed|inmem_mixed>
//                 --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//
// --trace 0 measures the end-to-end metrics with no timing wrappers.
// --trace 1 measures an untraced phase and a traced phase of half the time
// each, prints the per-layer metrics of the traced phase, and prints the
// tracing overhead as the traced phase's cost against the untraced one.
//
// Human-readable lines go first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  The exit code is non-zero
// when any correctness gate fails.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.h"

#ifndef CMH_BENCH_COMPILER
#define CMH_BENCH_COMPILER "unknown"
#endif
#ifndef CMH_BENCH_BUILD_TYPE
#define CMH_BENCH_BUILD_TYPE "unknown"
#endif

namespace cmh::perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Host and build stamp (ROADMAP item 1): numbers only count with it.
void print_stamp(const Args& args, const std::string& commit) {
  std::cout << "# host {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"cpu\": \"" << json_escape(cpu_model())
            << "\", \"compiler\": \"" << json_escape(CMH_BENCH_COMPILER)
            << "\", \"build_type\": \"" << CMH_BENCH_BUILD_TYPE
            << "\", \"commit\": \"" << json_escape(commit)
            << "\", \"workload\": \"" << args.workload
            << "\", \"seed\": " << args.seed
            << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << (args.trace ? 1 : 0) << "}\n";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_lines(const char* phase, const Report& r) {
  for (const auto& [name, unit] : e2e_metric_units()) {
    std::cout << "# " << phase << " " << name << " = " << num(r.e2e.at(name))
              << " " << unit << "\n";
  }
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto it = r.layer.find(name);
    if (it == r.layer.end()) continue;
    std::cout << "# " << phase << " " << name << " = " << num(it->second)
              << " " << unit << "\n";
  }
  for (const auto& [name, value] : r.notes) {
    std::cout << "# " << phase << " " << name << " = " << num(value) << "\n";
  }
  for (const std::string& e : r.errors) {
    std::cout << "# " << phase << " FAILED GATE: " << e << "\n";
  }
}

Report run_workload(const Args& args, double seconds, bool traced) {
  if (args.workload == "sim_wave") return run_sim_wave(args, seconds, traced);
  if (args.workload == "ddb_hot") return run_ddb_hot(args, seconds, traced);
  if (args.workload == "tcp_mixed") return run_tcp_mixed(args, seconds, traced);
  if (args.workload == "inmem_mixed")
    return run_inmem_mixed(args, seconds, traced);
  throw std::invalid_argument("unknown workload: " + args.workload);
}

int run(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--commit") {
      commit = value;
    } else {
      throw std::invalid_argument("unknown argument: " + key);
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    throw std::invalid_argument(
        "usage: cmh_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  print_stamp(args, commit);

  std::ostringstream metrics;
  Report result;
  if (!args.trace) {
    result = run_workload(args, args.seconds, /*traced=*/false);
    print_lines("e2e", result);
    const char* sep = "";
    for (const auto& [name, unit] : e2e_metric_units()) {
      metrics << sep << "\"" << name << "\": {\"value\": "
              << num(result.e2e.at(name)) << ", \"unit\": \"" << unit << "\"}";
      sep = ", ";
    }
  } else {
    const Report plain = run_workload(args, args.seconds / 2, false);
    print_lines("untraced", plain);
    result = run_workload(args, args.seconds / 2, true);
    print_lines("traced", result);
    result.layer["trace.overhead_frac"] = ratio(result.cost, plain.cost) - 1.0;
    result.layer["tail.op_p90_us"] = plain.layer.at("tail.op_p90_us");
    result.layer["tail.detect_p90_us"] = plain.layer.at("tail.detect_p90_us");
    result.correct = result.correct && plain.correct;
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    const char* sep = "";
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = result.layer.find(name);
      const double v = it == result.layer.end() ? 0.0 : it->second;
      std::cout << "# layer " << name << " = " << num(v) << " " << unit << "\n";
      metrics << sep << "\"" << name << "\": {\"value\": " << num(v)
              << ", \"unit\": \"" << unit << "\"}";
      sep = ", ";
    }
  }
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace cmh::perfbench

int main(int argc, char** argv) {
  try {
    return cmh::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cmh_perfbench: " << e.what() << "\n";
    return 2;
  }
}
