// Host stamp for the machine-readable bench lines.
//
// Every JSON line a bench commits (BENCH_stream.json, BENCH_simd.json)
// names the host it was measured on, with the fields servebench lines
// carry: the cores the process may run on, the active SIMD tier, the CMake
// build type, and the git commit the build tree was configured at
// (bench/CMakeLists.txt reconfigures when HEAD moves).
#pragma once

#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "simd/dispatch.hpp"

#ifndef EVD_BENCH_BUILD_TYPE
#define EVD_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef EVD_BENCH_GIT_SHA
#define EVD_BENCH_GIT_SHA "unknown"
#endif

namespace evd::bench {

/// CPUs in this process's affinity mask (hardware concurrency elsewhere).
inline int host_cores() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return CPU_COUNT(&set);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// `"cores":N,"simd_tier":"…","build_type":"…","git_sha":"…"`: the fields
/// each JSON line opens with. The tier is read at the call.
inline std::string host_fields() {
  return "\"cores\":" + std::to_string(host_cores()) + ",\"simd_tier\":\"" +
         simd::tier_name(simd::active_tier()) +
         "\",\"build_type\":\"" EVD_BENCH_BUILD_TYPE
         "\",\"git_sha\":\"" EVD_BENCH_GIT_SHA "\"";
}

}  // namespace evd::bench
