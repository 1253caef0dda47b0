// Multi-session streaming throughput (ISSUE 4 acceptance bench).
//
// One pipeline per paradigm serves K concurrent sessions through the
// evd::runtime SessionManager; the sweep measures aggregate ingest and
// decision throughput at K = 1, 4, 16, 64 on the full evd::par pool. The
// point of the runtime refactor is that sessions share nothing mutable, so
// aggregate throughput should scale with K until the pool saturates —
// single-session serving leaves every worker but one idle.
//
// Every leg serves through check::serve (src/check/serve.hpp), the driver
// the serving oracles use; a leg differs only in the tape it hands it.
//
// Output: one human table per paradigm plus one machine-readable JSON line
// per (paradigm, session count) config on stdout, e.g.
//   {"bench":"stream_throughput","paradigm":"gnn","sessions":16,...}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_host.hpp"
#include "check/oracles.hpp"
#include "check/serve.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fault/admission.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "route/route.hpp"
#include "sched/cost.hpp"
#include "sched/planner.hpp"

using namespace evd;

namespace {

using bench::kHeight;
using bench::kWidth;

constexpr Index kEventsPerSession = 4000;
constexpr TimeUs kDuration = 200000;  // 200 ms of stream per session

/// `session_count` sessions of `pipeline` on uniform streams, served in
/// bursts small enough to never overflow the 4096-deep ingress queues.
template <typename Pipeline>
bench::ServeRow serve_uniform(Pipeline& pipeline, Index session_count) {
  return bench::serve_bulk(
      [&](size_t) { return pipeline.open_session(kWidth, kHeight); },
      bench::uniform_sessions(100, session_count, kEventsPerSession,
                              kDuration));
}

void print_json(const char* paradigm, Index threads,
                const bench::ServeRow& row) {
  std::printf(
      "{%s,\"bench\":\"stream_throughput\",\"paradigm\":\"%s\","
      "\"threads\":%lld,\"sessions\":%lld,\"events\":%lld,\"decisions\":%lld,"
      "\"wall_ms\":%.3f,\"events_per_s\":%.0f,\"decisions_per_s\":%.0f}\n",
      bench::host_fields().c_str(), paradigm, static_cast<long long>(threads),
      static_cast<long long>(row.sessions),
      static_cast<long long>(row.events),
      static_cast<long long>(row.decisions), row.wall_ms, row.events_per_s(),
      row.decisions_per_s());
}

template <typename Pipeline>
bool sweep(const char* paradigm, Pipeline& pipeline, Index threads) {
  std::vector<bench::ServeRow> rows;
  for (const Index k : {1, 4, 16, 64}) {
    rows.push_back(serve_uniform(pipeline, k));
  }

  Table table({"sessions", "wall [ms]", "events/s", "decisions/s",
               "vs 1 session"});
  const double base = rows.front().events_per_s();
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.sessions), Table::num(row.wall_ms, 1),
                   Table::num(row.events_per_s(), 0),
                   Table::num(row.decisions_per_s(), 0),
                   Table::num(row.events_per_s() / base, 2) + "x"});
  }
  std::printf("\n-- %s: %lld-thread pool --\n", paradigm,
              static_cast<long long>(threads));
  table.print();
  for (const auto& row : rows) print_json(paradigm, threads, row);

  // Acceptance: on a >= 4 worker pool, serving many sessions must beat the
  // single-session aggregate (sessions are independent, so anything else
  // means the runtime serialised them).
  const double best = rows.back().events_per_s();
  if (threads >= 4 && best <= base) {
    std::fprintf(stderr,
                 "FATAL: %s aggregate throughput did not scale with "
                 "sessions (%.0f ev/s at 64 vs %.0f at 1)\n",
                 paradigm, best, base);
    return false;
  }
  return true;
}

// ---- fault-injection overhead gate (< 1% when disabled) -------------------
//
// Every served op crosses five injection sites (four ingress-corruption
// checks at submit, one op-fault check in pump), each a relaxed atomic load
// + branch while injection is disabled. Sub-1% effects drown in run-to-run
// noise on a direct A/B, so — like the obs disabled gate — the sequence is
// bounded analytically: time the exact five-site sequence in a tight loop
// and require it to cost < 1% of the measured per-event serving cost.
bool gate_fault_overhead(double serve_ns_per_event) {
  fault::set_enabled(false);
  fault::Site sites[5] = {
      fault::Injector::instance().site("bench.fault.malformed"),
      fault::Injector::instance().site("bench.fault.out_of_order"),
      fault::Injector::instance().site("bench.fault.duplicate"),
      fault::Injector::instance().site("bench.fault.storm"),
      fault::Injector::instance().site("bench.fault.op_fault"),
  };
  constexpr std::int64_t kOps = 8000000;
  std::int64_t guard = 0;  // keeps the disabled branches observable
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < kOps; ++i) {
    for (auto& site : sites) {
      guard += site.fire(i) != fault::FaultKind::None ? 1 : 0;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (guard != 0) std::fprintf(stderr, "unexpected: a disabled site fired\n");
  const double sequence_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(kOps);
  const double fraction = sequence_ns / serve_ns_per_event;
  std::printf(
      "\n-- fault-injection overhead (disabled) --\n"
      "   five-site sequence: %.2f ns/op vs %.0f ns/event served "
      "(%.3f%%)\n",
      sequence_ns, serve_ns_per_event, 100.0 * fraction);
  std::printf(
      "{%s,\"bench\":\"fault_overhead\",\"sequence_ns\":%.3f,"
      "\"serve_ns_per_event\":%.1f,\"fraction\":%.5f}\n",
      bench::host_fields().c_str(), sequence_ns, serve_ns_per_event, fraction);
  if (fraction >= 0.01) {
    std::fprintf(stderr,
                 "FATAL: disabled fault sites cost %.3f%% of serving "
                 "(gate: < 1%%)\n",
                 100.0 * fraction);
    return false;
  }
  return true;
}

// ---- overload ladder gate (>= 80% of capacity at 2x offered load) ---------

struct OverloadRow {
  double factor = 1.0;
  std::int64_t served = 0;
  std::int64_t offered = 0;
  double wall_ms = 0.0;
  double served_per_s() const {
    return 1e3 * static_cast<double>(served) / wall_ms;
  }
};

/// Offer `factor` x the per-round queue capacity to every session for a
/// fixed number of rounds, with the degradation ladder enabled, and measure
/// what actually got served. At factor 1 nothing sheds; at factor 2 the
/// ladder climbs to RejectAdmits during each burst and the gate below
/// requires serving not to collapse under the shed pressure.
OverloadRow serve_overload(double factor) {
  constexpr Index kSessions = 8;
  constexpr Index kQueueCapacity = 1024;
  constexpr Index kRounds = 4;
  const Index offered_per_round =
      static_cast<Index>(static_cast<double>(kQueueCapacity) * factor);
  const Index total = offered_per_round * kRounds;

  gnn::GnnPipeline pipeline(bench::gnn_dense_config());
  runtime::SessionManager manager(/*burst=*/256);
  fault::AdmissionConfig admission;
  admission.enabled = true;
  manager.set_admission(admission);
  runtime::ManagedSessionConfig config;
  config.queue_capacity = kQueueCapacity;
  std::vector<runtime::SessionId> ids;
  std::vector<std::vector<check::SessionOp>> streams;
  for (Index s = 0; s < kSessions; ++s) {
    ids.push_back(manager.add(pipeline.open_session(kWidth, kHeight), config));
    // The overloading sensor produces `factor` x the events; stretching the
    // stream window by the same factor keeps temporal density — and with it
    // the per-event graph-neighbourhood cost — identical across factors, so
    // the served/s ratio below isolates the serving stack (admission ladder,
    // queueing, rejection) instead of re-measuring model cost vs density.
    streams.push_back(bench::uniform_stream(
        500 + static_cast<std::uint64_t>(s), total,
        static_cast<TimeUs>(static_cast<double>(kDuration) *
                            static_cast<double>(kRounds) * factor)));
  }
  // One round per turn: offered_per_round ops per session, then pump_all.
  const check::Tape tape = check::round_robin(
      streams, static_cast<size_t>(offered_per_round), 1, check::Pump::All);

  const auto t0 = std::chrono::steady_clock::now();
  check::serve(manager, ids, tape);
  const auto t1 = std::chrono::steady_clock::now();

  OverloadRow row;
  row.factor = factor;
  row.offered = static_cast<std::int64_t>(total) * kSessions;
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (const auto id : ids) row.served += manager.stats(id).events_fed;
  return row;
}

bool gate_overload() {
  const OverloadRow capacity = serve_overload(1.0);
  const OverloadRow overload = serve_overload(2.0);

  Table table({"offered", "events offered", "events served", "wall [ms]",
               "served/s"});
  for (const auto& row : {capacity, overload}) {
    table.add_row({Table::num(row.factor, 1) + "x",
                   std::to_string(row.offered), std::to_string(row.served),
                   Table::num(row.wall_ms, 1),
                   Table::num(row.served_per_s(), 0)});
  }
  std::printf("\n-- overload ladder: served throughput under pressure --\n");
  table.print();
  for (const auto& row : {capacity, overload}) {
    std::printf(
        "{%s,\"bench\":\"stream_overload\",\"offered_factor\":%.1f,"
        "\"offered\":%lld,\"served\":%lld,\"wall_ms\":%.3f,"
        "\"served_per_s\":%.0f}\n",
        bench::host_fields().c_str(), row.factor,
        static_cast<long long>(row.offered),
        static_cast<long long>(row.served), row.wall_ms, row.served_per_s());
  }

  const double ratio = overload.served_per_s() / capacity.served_per_s();
  if (ratio < 0.80) {
    std::fprintf(stderr,
                 "FATAL: served throughput at 2x offered load is %.0f%% of "
                 "capacity (gate: >= 80%%)\n",
                 100.0 * ratio);
    return false;
  }
  return true;
}

// ---- execution-planner gate (ISSUE 8 acceptance) --------------------------
//
// A mixed-paradigm population arranged adversarially for the legacy s % W
// deal: the two expensive dense-GNN sessions sit at ids 0 and 4, so on a
// 4-worker pool the blind round-robin pump stacks both onto worker 0 every
// round while the SNN workers idle. The planner re-partitions the regions
// longest-first by modeled cost.
//
// That a plan never changes a decision is held by the
// sched.plan_vs_sequential.* oracles, and at population scale by
// servebench's mixed_dense workload, which compares every served session
// with a direct feed. Two gates, in decreasing order of portability:
//   1. Modeled serving makespan (every host): the chosen plan must beat the
//      modeled cost of the exact unplanned schedule — Plan::round_robin(8,
//      4, 256) is the s % 4 deal, burst 256, no placements, i.e. what the
//      blind pump actually executes — by >= 10% under the same evd::hw cost
//      models the paper's Table I comparisons rest on.
//   2. Wall clock: the plan only redistributes *visits* across workers
//      (the equivalence contract forbids it changing any executed op), so
//      its wall-time effect is purely a parallel-makespan effect. That is
//      only physically expressible when the host can actually run the 4
//      regions concurrently: on < 4 hardware threads every partition
//      serialises onto the same cores and all schedules cost the same wall
//      time by construction. So the >= 1.10x wall gate arms when
//      hardware_concurrency >= 4; below that the wall leg is reported and
//      only sanity-checked (planned must not be materially slower).

/// The mixed population, in session-id order. Paradigm pattern
/// gnn,cnn,snn,snn — repeating at ids 4..7, so each paradigm's sessions
/// collide on a worker under the legacy deal at W = 4.
struct MixedPopulation {
  gnn::GnnPipeline gnn;
  cnn::CnnPipeline cnn;
  snn::SnnPipeline snn;
  std::vector<const char*> paradigms;
  std::vector<std::vector<check::SessionOp>> sessions;

  MixedPopulation()
      : gnn(bench::gnn_dense_config()),
        cnn(bench::cnn_config()),
        snn(bench::snn_config()),
        paradigms{"gnn", "cnn", "snn", "snn", "gnn", "cnn", "snn", "snn"},
        sessions(bench::uniform_sessions(900, 8, kEventsPerSession,
                                         kDuration)) {}

  std::unique_ptr<core::StreamSession> open(size_t i) {
    if (std::strcmp(paradigms[i], "gnn") == 0) {
      return gnn.open_session(kWidth, kHeight);
    }
    if (std::strcmp(paradigms[i], "cnn") == 0) {
      return cnn.open_session(kWidth, kHeight);
    }
    return snn.open_session(kWidth, kHeight);
  }

  sched::SessionProfile profile(size_t i, Index queued_ops) {
    if (std::strcmp(paradigms[i], "gnn") == 0) {
      return sched::profile_for(gnn, "gnn", queued_ops);
    }
    if (std::strcmp(paradigms[i], "cnn") == 0) {
      return sched::profile_for(cnn, "cnn", queued_ops);
    }
    return sched::profile_for(snn, "snn", queued_ops);
  }
};

/// The population's sessions served under `plan` (the round-robin default
/// when null).
template <typename Population>
bench::ServeRow serve_population(Population& population,
                                 const sched::Plan* plan) {
  return bench::serve_bulk([&](size_t i) { return population.open(i); },
                           population.sessions, plan);
}

bool gate_planner() {
  // The adversarial deal needs W = 4 exactly (the ISSUE's >= 4 threads);
  // region_count above matches. Restore the full pool afterwards.
  const Index previous_threads = par::thread_count();
  par::set_thread_count(4);

  MixedPopulation population;
  std::vector<sched::SessionProfile> profiles;
  for (size_t s = 0; s < population.paradigms.size(); ++s) {
    profiles.push_back(population.profile(s, 2048));
  }
  sched::PlanConfig config;
  config.region_count = 4;
  config.burst_cap = 256;
  const sched::Plan plan = sched::Planner::instance().plan_for(profiles, config);
  // Modeled baseline = the schedule the unplanned pump actually runs: the
  // s % 4 deal at the manager's burst (256), no placements.
  const sched::CostModels models;
  sched::Plan legacy_schedule = sched::Plan::round_robin(8, 4, 256);
  const double legacy_modeled_us =
      sched::plan_cost_us(legacy_schedule, profiles, models);
  const double modeled_speedup = legacy_modeled_us / plan.modeled_cost_us;
  std::printf("\n-- execution planner: chosen plan --\n%s\n",
              plan.describe().c_str());
  std::printf(
      "   modeled drain: round-robin %.0f us, planned %.0f us (%.2fx)\n",
      legacy_modeled_us, plan.modeled_cost_us, modeled_speedup);

  // Interleave modes and keep the best of two runs each, so a one-off
  // scheduler hiccup cannot decide the gate either way.
  bench::ServeRow round_robin = serve_population(population, nullptr);
  bench::ServeRow planned = serve_population(population, &plan);
  {
    const bench::ServeRow rr2 = serve_population(population, nullptr);
    if (rr2.wall_ms < round_robin.wall_ms) round_robin = rr2;
    const bench::ServeRow planned2 = serve_population(population, &plan);
    if (planned2.wall_ms < planned.wall_ms) planned = planned2;
  }
  par::set_thread_count(previous_threads);

  const double speedup = planned.events_per_s() / round_robin.events_per_s();
  const unsigned cores = std::thread::hardware_concurrency();
  const bool wall_gated = cores >= 4;
  Table table({"pump", "wall [ms]", "events/s", "vs round-robin"});
  table.add_row({"round-robin", Table::num(round_robin.wall_ms, 1),
                 Table::num(round_robin.events_per_s(), 0), "1.00x"});
  table.add_row({"planned", Table::num(planned.wall_ms, 1),
                 Table::num(planned.events_per_s(), 0),
                 Table::num(speedup, 2) + "x"});
  std::printf(
      "\n-- execution planner: mixed 8-session population, 4 workers --\n");
  table.print();
  if (!wall_gated) {
    std::printf(
        "   host has %u hardware thread(s): all partitions serialise, so "
        "the wall leg is\n   reported but gated on the modeled makespan "
        "(wall sanity bound: >= 0.85x)\n",
        cores);
  }
  std::printf(
      "{%s,\"bench\":\"stream_planner\",\"sessions\":8,\"threads\":4,"
      "\"round_robin_wall_ms\":%.3f,\"planned_wall_ms\":%.3f,"
      "\"speedup\":%.3f,\"modeled_round_robin_us\":%.1f,"
      "\"modeled_plan_us\":%.1f,\"modeled_speedup\":%.3f,"
      "\"wall_gated\":%s}\n",
      bench::host_fields().c_str(), round_robin.wall_ms, planned.wall_ms,
      speedup, legacy_modeled_us, plan.modeled_cost_us, modeled_speedup,
      wall_gated ? "true" : "false");

  if (modeled_speedup < 1.10) {
    std::fprintf(stderr,
                 "FATAL: planner modeled improvement %.2fx on the "
                 "adversarial mixed workload (gate: >= 1.10x over the "
                 "legacy round-robin schedule)\n",
                 modeled_speedup);
    return false;
  }
  if (wall_gated && speedup < 1.10) {
    std::fprintf(stderr,
                 "FATAL: planner wall speedup %.2fx on %u-core host "
                 "(gate: >= 1.10x over round-robin)\n",
                 speedup, cores);
    return false;
  }
  if (!wall_gated && speedup < 0.85) {
    std::fprintf(stderr,
                 "FATAL: planned pump is materially slower (%.2fx) than "
                 "round-robin on a serialised host (sanity bound: 0.85x)\n",
                 speedup);
    return false;
  }
  return true;
}

// ---- execution-routing gate (ISSUE 9 acceptance) --------------------------
//
// A sparse adversarial population: four CNN and four SNN sessions whose
// streams live entirely in an 8x8 corner of the 32x32 sensor, so the live
// fraction of the declared dense work is ~6% — the regime where the
// paper's event-driven side of the dichotomy wins. The session profiles
// carry that measured activity, and the planner — choosing only among
// *proved* execution paths — must route the CNN placement onto cnn.sparse
// and the SNN placement onto snn.event_driven.
//
// That a routed path never changes a decision is held by the route.*
// oracles, and at population scale by servebench's sparse_corner workload,
// which compares every served session with a direct feed. Three legs:
//   1. Path choice (every host): the chosen plan routes cnn -> cnn.sparse
//      and snn -> snn.event_driven.
//   2. Modeled serving makespan (every host): the routed plan must beat
//      the same plan with default paths by >= 1.10x under the same cost
//      models — isolating the routing win from the partitioning win
//      gate_planner already holds.
//   3. Wall clock: routing changes per-op cost, not parallelism, so the
//      wall win is expressible on any core count — but its size depends on
//      how much of the serving loop the routed hot stage is, and on small
//      hosts queue/pump overhead compresses it. The >= 1.10x wall gate
//      arms on >= 4 hardware threads (where CI measures it reliably);
//      below that the leg is reported and sanity-bounded (>= 0.85x).

/// Measured live fraction: mean distinct-pixel occupancy per frame period
/// — what the activity-scaled execution paths are priced against.
double stream_activity(const std::vector<check::SessionOp>& stream,
                       TimeUs period) {
  std::vector<char> touched(static_cast<size_t>(kWidth * kHeight), 0);
  double occupancy_sum = 0.0;
  Index windows = 0;
  Index live = 0;
  TimeUs window_end = period;
  const auto flush = [&] {
    occupancy_sum +=
        static_cast<double>(live) / static_cast<double>(kWidth * kHeight);
    ++windows;
    live = 0;
    std::fill(touched.begin(), touched.end(), 0);
  };
  for (const check::SessionOp& op : stream) {
    if (op.kind != check::SessionOp::Kind::Feed) continue;
    const events::Event& e = op.event;
    while (e.t >= window_end) {
      flush();
      window_end += period;
    }
    char& cell = touched[static_cast<size_t>(e.y) * kWidth +
                         static_cast<size_t>(e.x)];
    live += cell == 0 ? 1 : 0;
    cell = 1;
  }
  flush();
  return windows > 0 ? occupancy_sum / static_cast<double>(windows) : 1.0;
}

/// The sparse population, paradigm pattern cnn,snn repeating over 8 ids,
/// every session's stream confined to an 8x8 patch of the sensor at the
/// uniform legs' temporal density.
struct SparsePopulation {
  cnn::CnnPipeline cnn;
  snn::SnnPipeline snn;
  std::vector<const char*> paradigms;
  std::vector<std::vector<check::SessionOp>> sessions;
  double activity = 1.0;

  SparsePopulation()
      : cnn(bench::cnn_config()),
        snn(bench::snn_config()),
        paradigms{"cnn", "snn", "cnn", "snn", "cnn", "snn", "cnn", "snn"},
        sessions(bench::uniform_sessions(1300, 8, kEventsPerSession,
                                         kDuration, 8, 8)),
        activity(stream_activity(sessions[0], 20000)) {}

  std::unique_ptr<core::StreamSession> open(size_t i) {
    if (std::strcmp(paradigms[i], "cnn") == 0) {
      return cnn.open_session(kWidth, kHeight);
    }
    return snn.open_session(kWidth, kHeight);
  }

  sched::SessionProfile profile(size_t i, Index queued_ops) {
    if (std::strcmp(paradigms[i], "cnn") == 0) {
      return sched::profile_for(cnn, "cnn", queued_ops, activity);
    }
    return sched::profile_for(snn, "snn", queued_ops, activity);
  }
};

bool gate_routing() {
  const Index previous_threads = par::thread_count();
  par::set_thread_count(4);
  // Proved-gating: the planner may only route onto oracle-backed paths,
  // and registering the route.* oracles is what marks them proved — the
  // same entitlement step a serving binary performs at startup.
  check::register_builtin_oracles();

  SparsePopulation population;
  std::vector<sched::SessionProfile> profiles;
  for (size_t s = 0; s < population.paradigms.size(); ++s) {
    profiles.push_back(population.profile(s, 2048));
  }
  sched::PlanConfig config;
  config.region_count = 4;
  config.burst_cap = 256;
  const sched::Plan plan = sched::Planner::instance().plan_for(profiles, config);

  const auto placement_path = [&plan](const char* paradigm) {
    for (const sched::ParadigmPlacement& p : plan.placements) {
      if (p.paradigm == paradigm) return p.path;
    }
    return route::PathId::Default;
  };
  const route::PathId cnn_path = placement_path("cnn");
  const route::PathId snn_path = placement_path("snn");

  // The routing win in isolation: the same chosen schedule with every
  // placement forced back to the default path, priced by the same models.
  sched::Plan unrouted = plan;
  for (sched::ParadigmPlacement& p : unrouted.placements) {
    p.path = route::PathId::Default;
  }
  const sched::CostModels models;
  const double unrouted_modeled_us =
      sched::plan_cost_us(unrouted, profiles, models);
  const double routed_modeled_us = sched::plan_cost_us(plan, profiles, models);
  const double modeled_speedup = unrouted_modeled_us / routed_modeled_us;
  std::printf(
      "\n-- execution routing: chosen plan (measured activity %.3f) --\n%s\n",
      population.activity, plan.describe().c_str());
  std::printf(
      "   modeled drain: default paths %.0f us, routed %.0f us (%.2fx)\n",
      unrouted_modeled_us, routed_modeled_us, modeled_speedup);

  // Best of two runs each, interleaved, as in gate_planner.
  bench::ServeRow default_paths = serve_population(population, &unrouted);
  bench::ServeRow routed = serve_population(population, &plan);
  {
    const bench::ServeRow default2 = serve_population(population, &unrouted);
    if (default2.wall_ms < default_paths.wall_ms) default_paths = default2;
    const bench::ServeRow routed2 = serve_population(population, &plan);
    if (routed2.wall_ms < routed.wall_ms) routed = routed2;
  }
  par::set_thread_count(previous_threads);

  const double speedup = routed.events_per_s() / default_paths.events_per_s();
  const unsigned cores = std::thread::hardware_concurrency();
  const bool wall_gated = cores >= 4;
  Table table({"paths", "wall [ms]", "events/s", "vs default"});
  table.add_row({"default", Table::num(default_paths.wall_ms, 1),
                 Table::num(default_paths.events_per_s(), 0), "1.00x"});
  table.add_row({"routed", Table::num(routed.wall_ms, 1),
                 Table::num(routed.events_per_s(), 0),
                 Table::num(speedup, 2) + "x"});
  std::printf(
      "\n-- execution routing: sparse 8-session population, 4 workers --\n");
  table.print();
  std::printf(
      "{%s,\"bench\":\"stream_routing\",\"sessions\":8,\"threads\":4,"
      "\"activity\":%.4f,\"cnn_path\":\"%s\","
      "\"snn_path\":\"%s\",\"default_wall_ms\":%.3f,\"routed_wall_ms\":%.3f,"
      "\"speedup\":%.3f,\"modeled_default_us\":%.1f,"
      "\"modeled_routed_us\":%.1f,\"modeled_speedup\":%.3f,"
      "\"wall_gated\":%s}\n",
      bench::host_fields().c_str(), population.activity,
      route::path_name(cnn_path), route::path_name(snn_path),
      default_paths.wall_ms, routed.wall_ms, speedup, unrouted_modeled_us,
      routed_modeled_us, modeled_speedup, wall_gated ? "true" : "false");

  if (cnn_path != route::PathId::CnnSparse ||
      snn_path != route::PathId::SnnEventDriven) {
    std::fprintf(stderr,
                 "FATAL: planner did not route the sparse population onto "
                 "the event-driven paths (cnn -> %s, snn -> %s)\n",
                 route::path_name(cnn_path), route::path_name(snn_path));
    return false;
  }
  if (modeled_speedup < 1.10) {
    std::fprintf(stderr,
                 "FATAL: routing modeled improvement %.2fx on the sparse "
                 "population (gate: >= 1.10x over default paths on the "
                 "same schedule)\n",
                 modeled_speedup);
    return false;
  }
  if (wall_gated && speedup < 1.10) {
    std::fprintf(stderr,
                 "FATAL: routing wall speedup %.2fx on %u-core host "
                 "(gate: >= 1.10x over default paths)\n",
                 speedup, cores);
    return false;
  }
  if (!wall_gated && speedup < 0.85) {
    std::fprintf(stderr,
                 "FATAL: routed pump is materially slower (%.2fx) than "
                 "default paths (sanity bound: 0.85x)\n",
                 speedup);
    return false;
  }
  return true;
}

// ---- sharded-ingestion gate (evd::shard acceptance) -----------------------
//
// A tenant population at serving scale: 10^4 sessions (the ISSUE's floor)
// with Zipf(1.1) hot-key tenant weights and two-state MMPP (Markov-
// modulated Poisson) bursty arrivals — the skewed, bursty workload shape
// consistent-hash sharding exists for. One deterministic arrival tape is
// served through a ShardManager at shards = 1 (the legacy single-manager
// collapse: no ring, no placement) and at 4 shards. That sharding never
// changes a decision is held by the shard.sharded_vs_sequential.* and
// *AcrossThreads* tests, and at population scale by servebench's
// tenant_zipf workload, which compares every served tenant with a direct
// feed. Three legs:
//   1. No shedding (every host, always gated): neither run drops an event.
//   2. Throughput: shard pumps fan out over evd::par, so the win is a
//      parallel-makespan effect exactly like the planner wall leg — the
//      >= 1.5x gate arms on >= 4 hardware threads; below that the ratio
//      is reported and sanity-bounded (>= 0.75x: ring + placement overhead
//      must stay in the noise even when every shard serialises onto one
//      core).
//   3. p99 feed->decision latency from the obs histogram on a separate
//      instrumented 4-shard run (reported and recorded in the JSON, so
//      BENCH_stream.json tracks the tail SLO over time).

constexpr Index kShardSessions = 10000;
constexpr Index kShardArrivals = 150000;
constexpr Index kShardGeometry = 16;
constexpr Index kShardCount = 4;

/// The shared arrival tape. Tenant of each event ~ Zipf(1.1) over the 10^4
/// sessions (rank-1 tenant takes ~10% of all traffic); inter-arrival gaps
/// are exponential with the rate modulated by a two-state Markov chain
/// (quiet ~40 us mean gap, burst ~4 us), switching with a small per-arrival
/// hazard — sustained bursts hammering one hot shard, exactly the adversary
/// of the placement design. Every 2048 arrivals the tape pumps all: even if
/// a burst lands entirely on one tenant, no ingress ring (8192) or inner
/// queue (4096) can overflow, so no run sheds.
check::Tape shard_arrival_tape() {
  Rng rng(4242);
  std::vector<double> cdf(static_cast<size_t>(kShardSessions));
  double total = 0.0;
  for (Index s = 0; s < kShardSessions; ++s) {
    total += 1.0 / std::pow(static_cast<double>(s) + 1.0, 1.1);
    cdf[static_cast<size_t>(s)] = total;
  }
  check::Tape tape;
  double now_us = 0.0;
  bool burst = false;
  for (Index i = 0; i < kShardArrivals; ++i) {
    if (rng.bernoulli(burst ? 0.05 : 0.02)) burst = !burst;
    const double mean_gap = burst ? 4.0 : 40.0;
    now_us += -mean_gap * std::log(1.0 - rng.uniform());
    if (i % 2048 == 0) tape.emplace_back();
    check::Arrival& a = tape.back().arrivals.emplace_back();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(),
                                     rng.uniform() * total);
    a.session = static_cast<Index>(it - cdf.begin());
    a.op.event.x = static_cast<std::int16_t>(
        rng.uniform_int(static_cast<std::uint64_t>(kShardGeometry)));
    a.op.event.y = static_cast<std::int16_t>(
        rng.uniform_int(static_cast<std::uint64_t>(kShardGeometry)));
    a.op.event.polarity = rng.bernoulli(0.5) ? Polarity::On : Polarity::Off;
    a.op.event.t = static_cast<TimeUs>(now_us);
    if (tape.back().arrivals.size() == 2048) {
      tape.back().pump = check::Pump::All;
    }
  }
  return tape;
}

/// Light GNN tenants: a decision every 4th event with no advance ops, so
/// 10^4 mostly-idle sessions cost nothing until traffic reaches them.
gnn::GnnPipelineConfig shard_tenant_config() {
  gnn::GnnPipelineConfig config;
  config.width = kShardGeometry;
  config.height = kShardGeometry;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 4;
  config.stream_max_nodes = 64;    // hot tenants recycle, deterministically
  config.decision_retain = 4096;   // > max decisions of the hottest tenant
  return config;
}

struct ShardRow {
  Index shards = 1;
  double wall_ms = 0.0;
  std::int64_t events = 0;
  std::int64_t decisions = 0;
  std::int64_t dropped = 0;
  double events_per_s() const {
    return 1e3 * static_cast<double>(events) / wall_ms;
  }
};

ShardRow serve_sharded(gnn::GnnPipeline& pipeline, const check::Tape& tape,
                       Index shards) {
  shard::ShardManagerConfig cfg;
  cfg.shards = shards;
  cfg.burst = 256;
  cfg.ingress_capacity = 8192;
  shard::ShardManager manager(cfg);
  std::vector<runtime::SessionId> ids;
  ids.reserve(static_cast<size_t>(kShardSessions));
  for (Index s = 0; s < kShardSessions; ++s) {
    ids.push_back(manager.add([&] {
      return pipeline.open_session(kShardGeometry, kShardGeometry);
    }));
  }

  const auto t0 = std::chrono::steady_clock::now();
  check::serve(manager, ids, tape);
  const auto t1 = std::chrono::steady_clock::now();

  ShardRow row;
  row.shards = shards;
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const shard::ShardManager::Stats stats = manager.stats();
  row.events = stats.totals.events_fed;
  row.decisions = stats.totals.decisions_emitted;
  row.dropped = stats.totals.events_dropped;
  return row;
}

void print_sharded_json(const ShardRow& row) {
  std::printf(
      "{%s,\"bench\":\"stream_sharded\",\"sessions\":%lld,\"shards\":%lld,"
      "\"events\":%lld,\"decisions\":%lld,\"dropped\":%lld,"
      "\"wall_ms\":%.3f,\"events_per_s\":%.0f}\n",
      bench::host_fields().c_str(), static_cast<long long>(kShardSessions),
      static_cast<long long>(row.shards), static_cast<long long>(row.events),
      static_cast<long long>(row.decisions),
      static_cast<long long>(row.dropped), row.wall_ms, row.events_per_s());
}

bool gate_sharding() {
  const check::Tape tape = shard_arrival_tape();
  gnn::GnnPipeline pipeline(shard_tenant_config());

  // Interleave modes, best of two each, as in gate_planner.
  ShardRow unsharded = serve_sharded(pipeline, tape, 1);
  ShardRow sharded = serve_sharded(pipeline, tape, kShardCount);
  {
    const ShardRow un2 = serve_sharded(pipeline, tape, 1);
    if (un2.wall_ms < unsharded.wall_ms) unsharded = un2;
    const ShardRow sh2 = serve_sharded(pipeline, tape, kShardCount);
    if (sh2.wall_ms < sharded.wall_ms) sharded = sh2;
  }

  const double speedup = sharded.events_per_s() / unsharded.events_per_s();
  const unsigned cores = std::thread::hardware_concurrency();
  const bool wall_gated = cores >= 4;

  // Tail latency of the sharded plane, from a separate instrumented run so
  // the throughput numbers above stay unperturbed.
  obs::MetricsRegistry::instance().reset();
  obs::set_enabled(true);
  serve_sharded(pipeline, tape, kShardCount);
  obs::set_enabled(false);
  const obs::MetricsSnapshot snap = obs::snapshot();
  // Each shard's inner manager records one labeled histogram
  // (evd_feed_to_decision_us{shard="k"}), and sessions record none of their
  // own, so every sample is counted once; the population tail is the
  // bucket-wise merge across shards.
  obs::HistogramSnapshot latency;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("evd_feed_to_decision_us", 0) != 0) continue;
    if (latency.buckets.empty()) latency.buckets.resize(h.buckets.size(), 0);
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      latency.buckets[b] += h.buckets[b];
    }
    latency.count += h.count;
    latency.sum += h.sum;
  }
  if (latency.count == 0) {
    std::fprintf(stderr,
                 "FATAL: no feed->decision latency samples from the "
                 "sharded run\n");
    return false;
  }
  const double p50 = latency.quantile(0.50);
  const double p99 = latency.quantile(0.99);

  Table table({"shards", "wall [ms]", "events/s", "vs 1 shard"});
  table.add_row({"1", Table::num(unsharded.wall_ms, 1),
                 Table::num(unsharded.events_per_s(), 0), "1.00x"});
  table.add_row({std::to_string(kShardCount), Table::num(sharded.wall_ms, 1),
                 Table::num(sharded.events_per_s(), 0),
                 Table::num(speedup, 2) + "x"});
  std::printf(
      "\n-- sharded ingestion: %lld Zipf/MMPP tenants, %lld arrivals --\n",
      static_cast<long long>(kShardSessions),
      static_cast<long long>(kShardArrivals));
  table.print();
  std::printf(
      "   sharded feed->decision latency: p50 %.0f us, p99 %.0f us over "
      "%lld samples\n",
      p50, p99, static_cast<long long>(latency.count));
  if (!wall_gated) {
    std::printf(
        "   host has %u hardware thread(s): shard pumps serialise, so the "
        "1.5x leg is\n   reported but only sanity-bounded (>= 0.75x)\n",
        cores);
  }
  print_sharded_json(unsharded);
  print_sharded_json(sharded);
  std::printf(
      "{%s,\"bench\":\"stream_sharded_gate\",\"sessions\":%lld,"
      "\"shards\":%lld,\"speedup\":%.3f,\"wall_gated\":%s,"
      "\"p50_us\":%.1f,\"p99_us\":%.1f}\n",
      bench::host_fields().c_str(), static_cast<long long>(kShardSessions),
      static_cast<long long>(kShardCount), speedup,
      wall_gated ? "true" : "false", p50, p99);

  if (unsharded.dropped != 0 || sharded.dropped != 0) {
    std::fprintf(stderr,
                 "FATAL: the tape should never shed (%lld dropped at 1 "
                 "shard, %lld at %lld)\n",
                 static_cast<long long>(unsharded.dropped),
                 static_cast<long long>(sharded.dropped),
                 static_cast<long long>(kShardCount));
    return false;
  }
  if (wall_gated && speedup < 1.5) {
    std::fprintf(stderr,
                 "FATAL: sharded throughput %.2fx vs the single-manager "
                 "path on %u-core host (gate: >= 1.5x)\n",
                 speedup, cores);
    return false;
  }
  if (!wall_gated && speedup < 0.75) {
    std::fprintf(stderr,
                 "FATAL: sharding is materially slower (%.2fx) than the "
                 "single-manager path on a serialised host (sanity bound: "
                 "0.75x)\n",
                 speedup);
    return false;
  }
  return true;
}

// ---- feed->decision latency (p50 / p99 from the obs histogram) ------------

/// Serve 8 sessions of one paradigm with observability on and report the
/// feed->decision latency distribution the SessionManager recorded. The
/// registry is reset per paradigm so each histogram is uncontaminated by
/// the previous pipeline's samples.
template <typename Pipeline>
bool report_latency(const char* paradigm, Pipeline& pipeline) {
  obs::MetricsRegistry::instance().reset();
  obs::set_enabled(true);
  serve_uniform(pipeline, 8);
  obs::set_enabled(false);
  const obs::MetricsSnapshot snap = obs::snapshot();
  const obs::HistogramSnapshot* latency =
      snap.histogram("evd_feed_to_decision_us");
  if (latency == nullptr || latency->count == 0) {
    std::fprintf(stderr, "FATAL: no %s feed->decision latency samples\n",
                 paradigm);
    return false;
  }
  const double p50 = latency->quantile(0.50);
  const double p99 = latency->quantile(0.99);
  std::printf(
      "\n-- %s feed->decision latency (8 sessions, 1-in-16 sampled) --\n"
      "   p50 %.0f us, p99 %.0f us, mean %.0f us over %lld samples\n",
      paradigm, p50, p99, latency->mean(),
      static_cast<long long>(latency->count));
  std::printf(
      "{%s,\"bench\":\"stream_latency\",\"paradigm\":\"%s\",\"sessions\":8,"
      "\"samples\":%lld,\"p50_us\":%.1f,\"p99_us\":%.1f,\"mean_us\":%.1f}\n",
      bench::host_fields().c_str(), paradigm,
      static_cast<long long>(latency->count), p50, p99,
      latency->mean());
  return true;
}

bool report_all_latencies() {
  bool ok = true;
  {
    cnn::CnnPipeline pipeline(bench::cnn_config());
    ok = report_latency("cnn", pipeline) && ok;
  }
  {
    snn::SnnPipeline pipeline(bench::snn_config());
    ok = report_latency("snn", pipeline) && ok;
  }
  {
    gnn::GnnPipeline pipeline(bench::gnn_dense_config());
    ok = report_latency("gnn", pipeline) && ok;
  }
  return ok;
}

}  // namespace

int main() {
  const auto hw = static_cast<Index>(std::thread::hardware_concurrency());
  const Index threads = hw > 0 ? hw : 1;
  par::set_thread_count(threads);
  std::printf("== multi-session stream serving throughput (%lld threads, "
              "%lld events/session) ==\n",
              static_cast<long long>(threads),
              static_cast<long long>(kEventsPerSession));

  bool ok = true;
  {
    cnn::CnnPipeline pipeline(bench::cnn_config());  // 10 frames/session
    ok = sweep("cnn", pipeline, threads) && ok;
  }
  {
    snn::SnnPipeline pipeline(bench::snn_config());  // 40 steps/session
    ok = sweep("snn", pipeline, threads) && ok;
  }
  {
    gnn::GnnPipelineConfig config;
    config.width = kWidth;
    config.height = kHeight;
    config.num_classes = 2;
    config.model.hidden = 16;
    config.model.layers = 2;
    config.stream_stride = 4;      // one decision per inserted event
    config.stream_max_nodes = 2048;  // > inserts/session: no recycle here
    config.decision_retain = 1024;   // keep 64 sessions' tails light
    gnn::GnnPipeline pipeline(config);
    ok = sweep("gnn", pipeline, threads) && ok;
  }
  {
    // Per-event serving cost for the fault-overhead gate, from a fresh
    // 8-session GNN run (the densest per-event paradigm).
    gnn::GnnPipeline pipeline(bench::gnn_dense_config());
    const bench::ServeRow row = serve_uniform(pipeline, 8);
    const double ns_per_event =
        row.wall_ms * 1e6 / static_cast<double>(row.events);
    ok = gate_fault_overhead(ns_per_event) && ok;
  }
  ok = gate_overload() && ok;
  ok = gate_planner() && ok;
  ok = gate_routing() && ok;
  ok = gate_sharding() && ok;
  ok = report_all_latencies() && ok;
  return ok ? 0 : 1;
}
