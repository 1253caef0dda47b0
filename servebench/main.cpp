// servebench: the evd serving benchmark. Usually run through run.py, which
// builds it first:
//
//   python3 servebench/run.py --workload mixed_dense --seed 1
//       --seconds 15 --trace 0
//
// Every stdout line is one JSON object stamped with the host's cores, the
// active SIMD tier, the build type, the source revision and the seed, except
// the last, which is the result: {"correct":..,"attempted":..,"failed":..,
// "metrics":{name:{"value":..,"unit":..}}}. Exit status 1 means a served
// decision stream differed from its sequential reference; wall-clock numbers
// never fail a run.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common/parallel.hpp"
#include "harness.hpp"
#include "simd/dispatch.hpp"
#include "workloads.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using servebench::json_number;

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-sha <sha>]\nworkloads:",
               why);
  for (const std::string& w : servebench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  servebench::RunOptions opts;
  opts.out_dir = ".";
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& w : servebench::workload_names()) {
    known = known || w == opts.workload;
  }
  if (!known) return usage(("unknown workload " + opts.workload).c_str());
  if (!(opts.seconds > 0.0) || opts.seconds > 60.0) {
    return usage("--seconds must be in (0, 60]");
  }

  const int cores = nproc();
  evd::par::set_thread_count(cores);
  const std::string build_type = SERVEBENCH_BUILD_TYPE;
  const bool release = build_type == "Release";
  const std::string stamp =
      "\"cores\":" + std::to_string(cores) + ",\"simd_tier\":\"" +
      evd::simd::tier_name(evd::simd::active_tier()) +
      "\",\"build_type\":\"" + build_type +
      "\",\"release\":" + (release ? "true" : "false") + ",\"git_sha\":\"" +
      git_sha + "\",\"seed\":" + std::to_string(opts.seed);
  const auto emit = [&stamp](const std::string& object) {
    std::printf("{%s,%s}\n", stamp.c_str(),
                object.substr(1, object.size() - 2).c_str());
  };
  emit("{\"workload\":\"" + opts.workload + "\",\"trace\":" +
       (opts.trace ? "true" : "false") + ",\"seconds\":" +
       json_number(opts.seconds) + ",\"threads\":" +
       std::to_string(evd::par::thread_count()) + "}");
  if (!release) {
    emit("{\"warning\":\"not a Release build: timings are not comparable\"}");
    std::fprintf(stderr, "servebench: WARNING: %s build\n", build_type.c_str());
  }

  servebench::RunResult result;
  try {
    result = servebench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : result.notes) emit(line);
  std::string metrics;
  for (const servebench::Metric& m : result.metrics) {
    std::string line = "{\"workload\":\"" + opts.workload + "\",\"metric\":\"" +
                       m.name + "\",\"value\":" + json_number(m.value) +
                       ",\"unit\":\"" + m.unit + "\"";
    if (m.samples > 0) line += ",\"samples\":" + std::to_string(m.samples);
    if (!m.applies) line += ",\"applies\":false";
    emit(line + "}");
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + m.name + "\":{\"value\":" + json_number(m.value) +
               ",\"unit\":\"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  if (!result.correct) {
    std::fprintf(stderr, "servebench: decision streams are not correct\n");
    return 1;
  }
  return 0;
}
