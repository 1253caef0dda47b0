// Multi-session streaming throughput (ISSUE 4 acceptance bench).
//
// One pipeline per paradigm serves K concurrent sessions through the
// evd::runtime SessionManager; the sweep measures aggregate ingest and
// decision throughput at K = 1, 4, 16, 64 on the full evd::par pool. The
// point of the runtime refactor is that sessions share nothing mutable, so
// aggregate throughput should scale with K until the pool saturates —
// single-session serving leaves every worker but one idle.
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
#include "cnn/cnn_pipeline.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "events/event.hpp"
#include "fault/admission.hpp"
#include "fault/injector.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "obs/metrics.hpp"
#include "route/route.hpp"
#include "runtime/session_manager.hpp"
#include "sched/cost.hpp"
#include "sched/planner.hpp"
#include "shard/shard_manager.hpp"
#include "snn/snn_pipeline.hpp"

using namespace evd;

namespace {

constexpr Index kWidth = 32;
constexpr Index kHeight = 32;
constexpr Index kEventsPerSession = 4000;
constexpr TimeUs kDuration = 200000;  // 200 ms of stream per session

/// Deterministic synthetic stream: uniform spatial noise, sorted times.
std::vector<events::Event> make_stream(std::uint64_t seed, Index count,
                                       TimeUs duration) {
  Rng rng(seed);
  std::vector<events::Event> stream;
  stream.reserve(static_cast<size_t>(count));
  for (Index i = 0; i < count; ++i) {
    events::Event e;
    e.x = static_cast<std::int16_t>(
        rng.uniform_int(static_cast<std::uint64_t>(kWidth)));
    e.y = static_cast<std::int16_t>(
        rng.uniform_int(static_cast<std::uint64_t>(kHeight)));
    e.polarity = rng.bernoulli(0.5) ? Polarity::On : Polarity::Off;
    e.t = (i * duration) / count;
    stream.push_back(e);
  }
  return stream;
}

std::vector<events::Event> session_stream(std::uint64_t seed) {
  return make_stream(seed, kEventsPerSession, kDuration);
}

struct ThroughputRow {
  Index sessions = 1;
  double wall_ms = 0.0;
  std::int64_t events = 0;
  std::int64_t decisions = 0;

  double events_per_s() const { return 1e3 * static_cast<double>(events) / wall_ms; }
  double decisions_per_s() const {
    return 1e3 * static_cast<double>(decisions) / wall_ms;
  }
};

template <typename Pipeline>
ThroughputRow serve(Pipeline& pipeline, Index session_count) {
  runtime::SessionManager manager(/*burst=*/256);
  std::vector<runtime::SessionId> ids;
  std::vector<std::vector<events::Event>> streams;
  for (Index s = 0; s < session_count; ++s) {
    ids.push_back(manager.add(pipeline.open_session(kWidth, kHeight)));
    streams.push_back(session_stream(100 + static_cast<std::uint64_t>(s)));
  }

  const auto t0 = std::chrono::steady_clock::now();
  // Submit in bursts small enough to never overflow the 4096-deep ingress
  // queues, pumping between bursts — the serving loop a real deployment runs.
  Index cursor = 0;
  while (cursor < kEventsPerSession) {
    const Index until = std::min<Index>(cursor + 2048, kEventsPerSession);
    for (Index s = 0; s < session_count; ++s) {
      for (Index i = cursor; i < until; ++i) {
        manager.submit(ids[s], streams[static_cast<size_t>(s)]
                                      [static_cast<size_t>(i)]);
      }
    }
    manager.pump_all();
    cursor = until;
  }
  for (Index s = 0; s < session_count; ++s) {
    manager.submit_advance(ids[s], kDuration);
  }
  manager.pump_all();
  const auto t1 = std::chrono::steady_clock::now();

  ThroughputRow row;
  row.sessions = session_count;
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (const auto id : ids) {
    const auto stats = manager.stats(id);
    row.events += stats.events_fed;
    row.decisions += stats.decisions_emitted;
  }
  return row;
}

void print_json(const char* paradigm, Index threads,
                const ThroughputRow& row) {
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
  std::vector<ThroughputRow> rows;
  for (const Index k : {1, 4, 16, 64}) {
    rows.push_back(serve(pipeline, k));
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

/// Every event inserts (stride 1) and runs the async message pass over a
/// hidden-32 model — the realistic per-event serving cost against which the
/// overhead gates below are held (the same shape bench_obs_overhead uses).
gnn::GnnPipelineConfig gnn_dense_config() {
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

  gnn::GnnPipeline pipeline(gnn_dense_config());
  runtime::SessionManager manager(/*burst=*/256);
  fault::AdmissionConfig admission;
  admission.enabled = true;
  manager.set_admission(admission);
  runtime::ManagedSessionConfig config;
  config.queue_capacity = kQueueCapacity;
  std::vector<runtime::SessionId> ids;
  std::vector<std::vector<events::Event>> streams;
  for (Index s = 0; s < kSessions; ++s) {
    ids.push_back(manager.add(pipeline.open_session(kWidth, kHeight), config));
    // The overloading sensor produces `factor` x the events; stretching the
    // stream window by the same factor keeps temporal density — and with it
    // the per-event graph-neighbourhood cost — identical across factors, so
    // the served/s ratio below isolates the serving stack (admission ladder,
    // queueing, rejection) instead of re-measuring model cost vs density.
    streams.push_back(
        make_stream(500 + static_cast<std::uint64_t>(s), total,
                    static_cast<TimeUs>(static_cast<double>(kDuration) *
                                        static_cast<double>(kRounds) * factor)));
  }

  const auto t0 = std::chrono::steady_clock::now();
  Index cursor = 0;
  for (Index round = 0; round < kRounds; ++round) {
    for (Index s = 0; s < kSessions; ++s) {
      for (Index i = cursor; i < cursor + offered_per_round; ++i) {
        manager.submit(ids[s],
                       streams[static_cast<size_t>(s)][static_cast<size_t>(i)]);
      }
    }
    manager.pump_all();
    cursor += offered_per_round;
  }
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
// Three gates, in decreasing order of portability:
//   1. Equivalence (every host): the planned pump's per-session decision
//      streams are bitwise identical to the round-robin pump's — the plan
//      equivalence contract, re-checked on real runs, not just in the
//      oracle suite.
//   2. Modeled serving makespan (every host): the chosen plan must beat the
//      modeled cost of the exact unplanned schedule — Plan::round_robin(8,
//      4, 256) is the s % 4 deal, burst 256, no placements, i.e. what the
//      blind pump actually executes — by >= 10% under the same evd::hw cost
//      models the paper's Table I comparisons rest on.
//   3. Wall clock: the plan only redistributes *visits* across workers
//      (the equivalence contract forbids it changing any executed op), so
//      its wall-time effect is purely a parallel-makespan effect. That is
//      only physically expressible when the host can actually run the 4
//      regions concurrently: on < 4 hardware threads every partition
//      serialises onto the same cores and all schedules cost the same wall
//      time by construction. So the >= 1.10x wall gate arms when
//      hardware_concurrency >= 4; below that the wall leg is reported and
//      only sanity-checked (planned must not be materially slower).

struct PlannerRow {
  double wall_ms = 0.0;
  std::int64_t events = 0;
  std::vector<std::vector<core::Decision>> streams;
  double events_per_s() const {
    return 1e3 * static_cast<double>(events) / wall_ms;
  }
};

/// The mixed population, in session-id order. Paradigm pattern
/// gnn,cnn,snn,snn — repeating at ids 4..7, so each paradigm's sessions
/// collide on a worker under the legacy deal at W = 4.
struct MixedPopulation {
  gnn::GnnPipeline gnn;
  cnn::CnnPipeline cnn;
  snn::SnnPipeline snn;
  std::vector<const char*> paradigms;

  MixedPopulation()
      : gnn(gnn_dense_config()),
        cnn([] {
          cnn::CnnPipelineConfig config;
          config.width = kWidth;
          config.height = kHeight;
          config.num_classes = 2;
          config.base_filters = 4;
          config.frame_period_us = 20000;
          return config;
        }()),
        snn([] {
          snn::SnnPipelineConfig config;
          config.width = kWidth;
          config.height = kHeight;
          config.num_classes = 2;
          config.hidden = 64;
          config.timestep_us = 5000;
          return config;
        }()),
        paradigms{"gnn", "cnn", "snn", "snn", "gnn", "cnn", "snn", "snn"} {}

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

  std::vector<events::Event> stream(size_t i) const {
    return session_stream(900 + static_cast<std::uint64_t>(i));
  }
};

template <typename Population>
PlannerRow serve_mixed(Population& population, const sched::Plan* plan) {
  const auto session_count = static_cast<Index>(population.paradigms.size());
  runtime::SessionManager manager(/*burst=*/256);
  std::vector<runtime::SessionId> ids;
  std::vector<std::vector<events::Event>> streams;
  for (Index s = 0; s < session_count; ++s) {
    ids.push_back(manager.add(population.open(static_cast<size_t>(s))));
    streams.push_back(population.stream(static_cast<size_t>(s)));
  }
  if (plan != nullptr) manager.set_plan(*plan);

  const auto t0 = std::chrono::steady_clock::now();
  Index cursor = 0;
  while (cursor < kEventsPerSession) {
    const Index until = std::min<Index>(cursor + 2048, kEventsPerSession);
    for (Index s = 0; s < session_count; ++s) {
      for (Index i = cursor; i < until; ++i) {
        manager.submit(ids[s], streams[static_cast<size_t>(s)]
                                      [static_cast<size_t>(i)]);
      }
    }
    manager.pump_all();
    cursor = until;
  }
  for (Index s = 0; s < session_count; ++s) {
    manager.submit_advance(ids[s], kDuration);
  }
  manager.pump_all();
  const auto t1 = std::chrono::steady_clock::now();

  PlannerRow row;
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (const auto id : ids) {
    row.events += manager.stats(id).events_fed;
    std::vector<core::Decision> out;
    manager.drain(id, out);
    row.streams.push_back(std::move(out));
  }
  return row;
}

bool streams_bitwise_identical(
    const std::vector<std::vector<core::Decision>>& a,
    const std::vector<std::vector<core::Decision>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t s = 0; s < a.size(); ++s) {
    const auto& da = a[s];
    const auto& db = b[s];
    if (da.size() != db.size()) return false;
    for (size_t i = 0; i < da.size(); ++i) {
      if (da[i].label != db[i].label || da[i].t != db[i].t ||
          std::memcmp(&da[i].confidence, &db[i].confidence,
                      sizeof(da[i].confidence)) != 0) {
        return false;
      }
    }
  }
  return true;
}

bool decision_streams_identical(const PlannerRow& a, const PlannerRow& b) {
  return streams_bitwise_identical(a.streams, b.streams);
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
  PlannerRow round_robin = serve_mixed(population, nullptr);
  PlannerRow planned = serve_mixed(population, &plan);
  {
    PlannerRow rr2 = serve_mixed(population, nullptr);
    if (rr2.wall_ms < round_robin.wall_ms) round_robin = std::move(rr2);
    PlannerRow planned2 = serve_mixed(population, &plan);
    if (planned2.wall_ms < planned.wall_ms) planned = std::move(planned2);
  }
  par::set_thread_count(previous_threads);

  const bool identical = decision_streams_identical(round_robin, planned);
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
  std::printf("   decision streams bitwise identical: %s\n",
              identical ? "yes" : "NO");
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
      "\"wall_gated\":%s,\"streams_identical\":%s}\n",
      bench::host_fields().c_str(), round_robin.wall_ms, planned.wall_ms,
      speedup, legacy_modeled_us, plan.modeled_cost_us, modeled_speedup,
      wall_gated ? "true" : "false", identical ? "true" : "false");

  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: planned pump changed a decision stream (the plan "
                 "equivalence contract is bitwise)\n");
    return false;
  }
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
// Four legs:
//   1. Path choice (every host): the chosen plan routes cnn -> cnn.sparse
//      and snn -> snn.event_driven.
//   2. Equivalence (every host): serving through the routed plan produces
//      decision streams bitwise identical to serving the same schedule
//      with every path forced back to Default — the routing equivalence
//      contract re-checked on a real run, not just in the oracle suite.
//   3. Modeled serving makespan (every host): the routed plan must beat
//      the same plan with default paths by >= 1.10x under the same cost
//      models — isolating the routing win from the partitioning win
//      gate_planner already holds.
//   4. Wall clock: routing changes per-op cost, not parallelism, so the
//      wall win is expressible on any core count — but its size depends on
//      how much of the serving loop the routed hot stage is, and on small
//      hosts queue/pump overhead compresses it. The >= 1.10x wall gate
//      arms on >= 4 hardware threads (where CI measures it reliably);
//      below that the leg is reported and sanity-bounded (>= 0.85x).

/// Sparse-corner stream: session_stream's temporal density, all activity
/// confined to an 8x8 patch of the sensor.
std::vector<events::Event> sparse_corner_stream(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<events::Event> stream;
  stream.reserve(static_cast<size_t>(kEventsPerSession));
  for (Index i = 0; i < kEventsPerSession; ++i) {
    events::Event e;
    e.x = static_cast<std::int16_t>(rng.uniform_int(8));
    e.y = static_cast<std::int16_t>(rng.uniform_int(8));
    e.polarity = rng.bernoulli(0.5) ? Polarity::On : Polarity::Off;
    e.t = (i * kDuration) / kEventsPerSession;
    stream.push_back(e);
  }
  return stream;
}

/// Measured live fraction: mean distinct-pixel occupancy per frame period
/// — what the activity-scaled execution paths are priced against.
double stream_activity(const std::vector<events::Event>& stream,
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
  for (const events::Event& e : stream) {
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

/// The sparse population, paradigm pattern cnn,snn repeating over 8 ids.
struct SparsePopulation {
  cnn::CnnPipeline cnn;
  snn::SnnPipeline snn;
  std::vector<const char*> paradigms;
  double activity = 1.0;

  SparsePopulation()
      : cnn([] {
          cnn::CnnPipelineConfig config;
          config.width = kWidth;
          config.height = kHeight;
          config.num_classes = 2;
          config.base_filters = 4;
          config.frame_period_us = 20000;
          return config;
        }()),
        snn([] {
          snn::SnnPipelineConfig config;
          config.width = kWidth;
          config.height = kHeight;
          config.num_classes = 2;
          config.hidden = 64;
          config.timestep_us = 5000;
          return config;
        }()),
        paradigms{"cnn", "snn", "cnn", "snn", "cnn", "snn", "cnn", "snn"},
        activity(stream_activity(stream(0), 20000)) {}

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

  std::vector<events::Event> stream(size_t i) const {
    return sparse_corner_stream(1300 + static_cast<std::uint64_t>(i));
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
  PlannerRow default_paths = serve_mixed(population, &unrouted);
  PlannerRow routed = serve_mixed(population, &plan);
  {
    PlannerRow default2 = serve_mixed(population, &unrouted);
    if (default2.wall_ms < default_paths.wall_ms) {
      default_paths = std::move(default2);
    }
    PlannerRow routed2 = serve_mixed(population, &plan);
    if (routed2.wall_ms < routed.wall_ms) routed = std::move(routed2);
  }
  par::set_thread_count(previous_threads);

  const bool identical = decision_streams_identical(default_paths, routed);
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
  std::printf("   decision streams bitwise identical: %s\n",
              identical ? "yes" : "NO");
  std::printf(
      "{%s,\"bench\":\"stream_routing\",\"sessions\":8,\"threads\":4,"
      "\"activity\":%.4f,\"cnn_path\":\"%s\","
      "\"snn_path\":\"%s\",\"default_wall_ms\":%.3f,\"routed_wall_ms\":%.3f,"
      "\"speedup\":%.3f,\"modeled_default_us\":%.1f,"
      "\"modeled_routed_us\":%.1f,\"modeled_speedup\":%.3f,"
      "\"wall_gated\":%s,\"streams_identical\":%s}\n",
      bench::host_fields().c_str(), population.activity,
      route::path_name(cnn_path), route::path_name(snn_path),
      default_paths.wall_ms, routed.wall_ms, speedup, unrouted_modeled_us,
      routed_modeled_us, modeled_speedup,
      wall_gated ? "true" : "false", identical ? "true" : "false");

  if (cnn_path != route::PathId::CnnSparse ||
      snn_path != route::PathId::SnnEventDriven) {
    std::fprintf(stderr,
                 "FATAL: planner did not route the sparse population onto "
                 "the event-driven paths (cnn -> %s, snn -> %s)\n",
                 route::path_name(cnn_path), route::path_name(snn_path));
    return false;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: routed pump changed a decision stream (the routing "
                 "equivalence contract is bitwise)\n");
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
// served twice through a ShardManager — at shards = 1 (the legacy
// single-manager collapse: no ring, no placement) and at 4 shards — and
// three legs are held:
//   1. Equivalence (every host, always gated): per-session decision
//      streams bitwise identical between the two runs, and neither run
//      sheds an event — sharding is replay-transparent at population
//      scale, not just on oracle-sized schedules.
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

struct Arrival {
  Index session = 0;
  events::Event event;
};

/// The shared arrival tape. Tenant of each event ~ Zipf(1.1) over the 10^4
/// sessions (rank-1 tenant takes ~10% of all traffic); inter-arrival gaps
/// are exponential with the rate modulated by a two-state Markov chain
/// (quiet ~40 us mean gap, burst ~4 us), switching with a small per-arrival
/// hazard — sustained bursts hammering one hot shard, exactly the adversary
/// of the placement design.
std::vector<Arrival> shard_arrival_tape() {
  Rng rng(4242);
  std::vector<double> cdf(static_cast<size_t>(kShardSessions));
  double total = 0.0;
  for (Index s = 0; s < kShardSessions; ++s) {
    total += 1.0 / std::pow(static_cast<double>(s) + 1.0, 1.1);
    cdf[static_cast<size_t>(s)] = total;
  }
  std::vector<Arrival> tape;
  tape.reserve(static_cast<size_t>(kShardArrivals));
  double now_us = 0.0;
  bool burst = false;
  for (Index i = 0; i < kShardArrivals; ++i) {
    if (rng.bernoulli(burst ? 0.05 : 0.02)) burst = !burst;
    const double mean_gap = burst ? 4.0 : 40.0;
    now_us += -mean_gap * std::log(1.0 - rng.uniform());
    Arrival a;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(),
                                     rng.uniform() * total);
    a.session = static_cast<Index>(it - cdf.begin());
    a.event.x = static_cast<std::int16_t>(
        rng.uniform_int(static_cast<std::uint64_t>(kShardGeometry)));
    a.event.y = static_cast<std::int16_t>(
        rng.uniform_int(static_cast<std::uint64_t>(kShardGeometry)));
    a.event.polarity = rng.bernoulli(0.5) ? Polarity::On : Polarity::Off;
    a.event.t = static_cast<TimeUs>(now_us);
    tape.push_back(a);
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
  std::vector<std::vector<core::Decision>> streams;
  double events_per_s() const {
    return 1e3 * static_cast<double>(events) / wall_ms;
  }
};

ShardRow serve_tape_sharded(gnn::GnnPipeline& pipeline,
                            const std::vector<Arrival>& tape, Index shards) {
  shard::ShardManagerConfig cfg;
  cfg.shards = shards;
  cfg.burst = 256;
  cfg.ingress_capacity = 8192;
  shard::ShardManager manager(cfg);
  std::vector<shard::ShardManager::SessionId> ids;
  ids.reserve(static_cast<size_t>(kShardSessions));
  for (Index s = 0; s < kShardSessions; ++s) {
    ids.push_back(manager.add([&] {
      return pipeline.open_session(kShardGeometry, kShardGeometry);
    }));
  }

  const auto t0 = std::chrono::steady_clock::now();
  // Drain every 2048 arrivals: even if a burst lands entirely on one
  // tenant, no ingress ring (8192) or inner queue (4096) can overflow, so
  // the two runs shed nothing and stay comparable event for event.
  Index since_pump = 0;
  for (const Arrival& a : tape) {
    while (!manager.submit(ids[static_cast<size_t>(a.session)], a.event)) {
      manager.pump();
    }
    if (++since_pump == 2048) {
      manager.pump_all();
      since_pump = 0;
    }
  }
  manager.pump_all();
  const auto t1 = std::chrono::steady_clock::now();

  ShardRow row;
  row.shards = shards;
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const shard::ShardManager::Stats stats = manager.stats();
  row.events = stats.totals.events_fed;
  row.decisions = stats.totals.decisions_emitted;
  row.dropped = stats.totals.events_dropped;
  row.streams.reserve(ids.size());
  for (const auto id : ids) {
    std::vector<core::Decision> out;
    manager.drain(id, out);
    row.streams.push_back(std::move(out));
  }
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
  const std::vector<Arrival> tape = shard_arrival_tape();
  gnn::GnnPipeline pipeline(shard_tenant_config());

  // Interleave modes, best of two each, as in gate_planner.
  ShardRow unsharded = serve_tape_sharded(pipeline, tape, 1);
  ShardRow sharded = serve_tape_sharded(pipeline, tape, kShardCount);
  {
    ShardRow un2 = serve_tape_sharded(pipeline, tape, 1);
    const bool identical_un = streams_bitwise_identical(unsharded.streams,
                                                        un2.streams);
    if (!identical_un) {
      std::fprintf(stderr,
                   "FATAL: two shards=1 runs of the same tape disagree — "
                   "serving is not deterministic\n");
      return false;
    }
    if (un2.wall_ms < unsharded.wall_ms) unsharded = std::move(un2);
    ShardRow sh2 = serve_tape_sharded(pipeline, tape, kShardCount);
    if (sh2.wall_ms < sharded.wall_ms) sharded = std::move(sh2);
  }

  const bool identical =
      streams_bitwise_identical(unsharded.streams, sharded.streams);
  const double speedup = sharded.events_per_s() / unsharded.events_per_s();
  const unsigned cores = std::thread::hardware_concurrency();
  const bool wall_gated = cores >= 4;

  // Tail latency of the sharded plane, from a separate instrumented run so
  // the throughput numbers above stay unperturbed.
  obs::MetricsRegistry::instance().reset();
  obs::set_enabled(true);
  serve_tape_sharded(pipeline, tape, kShardCount);
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
  std::printf("   decision streams bitwise identical: %s\n",
              identical ? "yes" : "NO");
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
      "\"streams_identical\":%s,\"p50_us\":%.1f,\"p99_us\":%.1f}\n",
      bench::host_fields().c_str(), static_cast<long long>(kShardSessions),
      static_cast<long long>(kShardCount), speedup,
      wall_gated ? "true" : "false", identical ? "true" : "false", p50, p99);

  if (unsharded.dropped != 0 || sharded.dropped != 0) {
    std::fprintf(stderr,
                 "FATAL: the tape should never shed (%lld dropped at 1 "
                 "shard, %lld at %lld)\n",
                 static_cast<long long>(unsharded.dropped),
                 static_cast<long long>(sharded.dropped),
                 static_cast<long long>(kShardCount));
    return false;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: sharding changed a decision stream (the "
                 "replay-transparency contract is bitwise)\n");
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
  serve(pipeline, 8);
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
    cnn::CnnPipelineConfig config;
    config.width = kWidth;
    config.height = kHeight;
    config.num_classes = 2;
    config.base_filters = 4;
    config.frame_period_us = 20000;
    cnn::CnnPipeline pipeline(config);
    ok = report_latency("cnn", pipeline) && ok;
  }
  {
    snn::SnnPipelineConfig config;
    config.width = kWidth;
    config.height = kHeight;
    config.num_classes = 2;
    config.hidden = 64;
    config.timestep_us = 5000;
    snn::SnnPipeline pipeline(config);
    ok = report_latency("snn", pipeline) && ok;
  }
  {
    gnn::GnnPipeline pipeline(gnn_dense_config());
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
    cnn::CnnPipelineConfig config;
    config.width = kWidth;
    config.height = kHeight;
    config.num_classes = 2;
    config.base_filters = 4;
    config.frame_period_us = 20000;  // 10 frame decisions per session
    cnn::CnnPipeline pipeline(config);
    ok = sweep("cnn", pipeline, threads) && ok;
  }
  {
    snn::SnnPipelineConfig config;
    config.width = kWidth;
    config.height = kHeight;
    config.num_classes = 2;
    config.hidden = 64;
    config.timestep_us = 5000;  // 40 step decisions per session
    snn::SnnPipeline pipeline(config);
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
    gnn::GnnPipeline pipeline(gnn_dense_config());
    const ThroughputRow row = serve(pipeline, 8);
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
