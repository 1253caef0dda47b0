// Shared bench scaffolding: the host stamp for the machine-readable bench
// lines, and the serving fixtures bench_stream_throughput and
// bench_obs_overhead share.
//
// Every JSON line a bench commits (BENCH_stream.json, BENCH_simd.json)
// names the host it was measured on, with the fields servebench lines
// carry: the cores the process may run on, the active SIMD tier, the CMake
// build type, and the git commit the build tree was configured at
// (bench/CMakeLists.txt reconfigures when HEAD moves).
#pragma once

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "check/serve.hpp"
#include "cnn/cnn_pipeline.hpp"
#include "common/rng.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "simd/dispatch.hpp"
#include "snn/snn_pipeline.hpp"

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

// ---- serving fixtures ------------------------------------------------------

inline constexpr Index kWidth = 32;
inline constexpr Index kHeight = 32;

/// 4 base filters; a frame decision every 20 ms.
inline cnn::CnnPipelineConfig cnn_config() {
  cnn::CnnPipelineConfig config;
  config.width = kWidth;
  config.height = kHeight;
  config.num_classes = 2;
  config.base_filters = 4;
  config.frame_period_us = 20000;
  return config;
}

/// 64 hidden neurons; a step decision every 5 ms.
inline snn::SnnPipelineConfig snn_config() {
  snn::SnnPipelineConfig config;
  config.width = kWidth;
  config.height = kHeight;
  config.num_classes = 2;
  config.hidden = 64;
  config.timestep_us = 5000;
  return config;
}

/// Every event inserts (stride 1) and runs the async message pass over a
/// hidden-32 model: the realistic per-event serving cost against which the
/// fault-site and observability overhead gates are held.
inline gnn::GnnPipelineConfig gnn_dense_config() {
  gnn::GnnPipelineConfig config;
  config.width = kWidth;
  config.height = kHeight;
  config.num_classes = 2;
  config.model.hidden = 32;
  config.model.layers = 2;
  config.stream_stride = 1;
  config.stream_max_nodes = 2048;
  config.decision_retain = 256;
  return config;
}

/// Deterministic feeds: uniform spatial noise over the top-left
/// `width` x `height` patch of the sensor, `count` events evenly spaced
/// over `duration`.
inline std::vector<check::SessionOp> uniform_stream(
    std::uint64_t seed, Index count, TimeUs duration, Index width = kWidth,
    Index height = kHeight) {
  Rng rng(seed);
  std::vector<check::SessionOp> ops;
  ops.reserve(static_cast<size_t>(count) + 1);
  for (Index i = 0; i < count; ++i) {
    check::SessionOp& op = ops.emplace_back();
    op.event.x = static_cast<std::int16_t>(
        rng.uniform_int(static_cast<std::uint64_t>(width)));
    op.event.y = static_cast<std::int16_t>(
        rng.uniform_int(static_cast<std::uint64_t>(height)));
    op.event.polarity = rng.bernoulli(0.5) ? Polarity::On : Polarity::Off;
    op.event.t = (i * duration) / count;
  }
  return ops;
}

/// `count` sessions' ops, seeded first_seed, first_seed + 1, ...: each a
/// uniform_stream of `events` feeds, then an advance to `duration`.
inline std::vector<std::vector<check::SessionOp>> uniform_sessions(
    std::uint64_t first_seed, Index count, Index events, TimeUs duration,
    Index width = kWidth, Index height = kHeight) {
  std::vector<std::vector<check::SessionOp>> sessions;
  for (Index s = 0; s < count; ++s) {
    std::vector<check::SessionOp>& ops = sessions.emplace_back(
        uniform_stream(first_seed + static_cast<std::uint64_t>(s), events,
                       duration, width, height));
    check::SessionOp& end = ops.emplace_back();
    end.kind = check::SessionOp::Kind::Advance;
    end.t = duration;
  }
  return sessions;
}

struct ServeRow {
  Index sessions = 0;
  double wall_ms = 0.0;
  std::int64_t events = 0;
  std::int64_t decisions = 0;

  double events_per_s() const {
    return 1e3 * static_cast<double>(events) / wall_ms;
  }
  double decisions_per_s() const {
    return 1e3 * static_cast<double>(decisions) / wall_ms;
  }
};

/// Opens session s with `open(s)` for each of `sessions` on a burst-256
/// SessionManager, installs `plan` when given, and times one check::serve
/// call: 2048 ops per session between pump_all()s.
template <typename Open>
ServeRow serve_bulk(Open&& open,
                    const std::vector<std::vector<check::SessionOp>>& sessions,
                    const sched::Plan* plan = nullptr) {
  runtime::SessionManager manager(/*burst=*/256);
  std::vector<runtime::SessionId> ids;
  for (size_t s = 0; s < sessions.size(); ++s) {
    ids.push_back(manager.add(open(s)));
  }
  if (plan != nullptr) manager.set_plan(*plan);
  const check::Tape tape =
      check::round_robin(sessions, 2048, 1, check::Pump::All);

  const auto t0 = std::chrono::steady_clock::now();
  check::serve(manager, ids, tape);
  const auto t1 = std::chrono::steady_clock::now();

  ServeRow row;
  row.sessions = static_cast<Index>(ids.size());
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (const auto id : ids) {
    const core::SessionStats stats = manager.stats(id);
    row.events += stats.events_fed;
    row.decisions += stats.decisions_emitted;
  }
  return row;
}

}  // namespace evd::bench
