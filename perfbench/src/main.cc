// perfbench: the repository benchmark. One run executes one named workload
// for a fixed time against the mapcomp library, checks its outputs, and
// prints one JSON result line (see perfbench/README.md).
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--plant-fault]

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricName {
  const char* name;
  const char* unit;
};

// Every run prints all of one list, so each name must make sense (and be
// non-zero) on every workload.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"peak_rss_mb", "MB"},
    {"latency_p50_us", "us"},
};

// A layer a workload does not drive reads 0 on that workload.
constexpr MetricName kPerLayer[] = {
    {"trace.ops_per_s", "ops/s"},
    {"simulator.generate_s", "s"},
    {"compose.time_s", "s"},
    {"compose.p50_us", "us"},
    {"compose.retry_s", "s"},
    {"compose.rounds", "count"},
    {"compose.waves", "count"},
    {"compose.unfold", "count"},
    {"compose.left", "count"},
    {"compose.right", "count"},
    {"compose.deskolemize", "count"},
    {"compose.blowup_aborts", "count"},
    {"compose.output_ops", "count"},
    {"compose.consumed_eliminated", "count"},
    {"algebra.intern_hits", "count"},
    {"algebra.intern_misses", "count"},
    {"algebra.intern_entries", "count"},
    {"algebra.sweeps", "count"},
    {"runtime.step_p50_us", "us"},
    {"runtime.compositions_per_op", "count"},
    {"runtime.prefix_hits", "count"},
    {"runtime.service_hits", "count"},
    {"runtime.service_misses", "count"},
    {"runtime.chain_cache_bytes_peak", "bytes"},
    {"runtime.service_cache_bytes_peak", "bytes"},
    {"serve.p99_us", "us"},
    {"serve.hot_p50_us", "us"},
    {"serve.cold_p50_us", "us"},
    {"serve.cache_bypass", "ratio"},
    {"serve.queue_depth_watermark", "count"},
    {"serve.encode_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.bytes_per_op", "bytes"},
    {"parser.request_parse_us", "us"},
    {"eval.check_p50_us", "us"},
    {"eval.nodes_evaluated", "count"},
    {"eval.tasks_spawned", "count"},
    {"eval.sharded_nodes", "count"},
    {"eval.hash_join_nodes", "count"},
    {"eval.index_cache_hits", "count"},
    {"eval.memo_bytes_peak", "bytes"},
    {"eval.multi_lane_ops_per_s", "ops/s"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "edit_stream|registry_chains|wire_mixed|soundness_sweep "
               "--seed N --seconds S --trace 0|1 [--plant-fault]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--plant-fault") {
      args->plant_fault = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0 && args->seconds <= 600.0)) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace expects 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::ProcessStart();
  perfbench::AllowedCpus();
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());

  Report report;
  if (args.trace) perfbench::Tracer::Get().Enable();
  if (args.workload == "edit_stream") {
    perfbench::RunEditStream(args, &report);
  } else if (args.workload == "registry_chains") {
    perfbench::RunRegistryChains(args, &report);
  } else if (args.workload == "wire_mixed") {
    perfbench::RunWireMixed(args, &report);
  } else if (args.workload == "soundness_sweep") {
    perfbench::RunSoundnessSweep(args, &report);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (report.attempted() == 0) report.Fail("no operation was attempted");

  // Workloads report both lists; the run prints the active one. A name in
  // neither list is a typo in the workload.
  std::vector<std::pair<std::string, std::string>> listed;
  auto list = [&listed](const auto& metrics) {
    for (const MetricName& m : metrics) listed.emplace_back(m.name, m.unit);
  };
  if (args.trace) {
    list(kPerLayer);
  } else {
    list(kEndToEnd);
  }
  for (const std::string& name : report.Names()) {
    bool known = false;
    for (const MetricName& m : kEndToEnd) known = known || name == m.name;
    for (const MetricName& m : kPerLayer) known = known || name == m.name;
    if (!known) report.Fail("workload reported unknown metric " + name);
  }

  mkdir(perfbench::kOutDir, 0755);
  if (args.trace) perfbench::FinishTrace(args);
  std::string line = report.ToJson(listed);
  std::ofstream(std::string(perfbench::kOutDir) + "/result-" + args.workload + "-s" +
                std::to_string(args.seed) + "-t" +
                (args.trace ? "1" : "0") + ".json")
      << line << "\n";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
