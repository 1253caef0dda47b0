// SessionManager: FIFO op order per session, burst scheduling, overflow
// accounting, and thread-count invariance of the per-session op streams.
// (Bitwise equality of real pipeline decision streams is enforced by the
// runtime.multiplex_vs_sequential.* oracles; this file pins the scheduling
// mechanics with a deterministic recording session.)
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "fault/injector.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "obs/metrics.hpp"
#include "runtime/session_manager.hpp"
#include "test_util.hpp"

namespace evd::runtime {
namespace {

events::Event event_at(TimeUs t) {
  events::Event e;
  e.x = static_cast<std::int16_t>(t % 7);
  e.y = 3;
  e.polarity = Polarity::On;
  e.t = t;
  return e;
}

/// Records the op stream it sees and decides on every advance; the record
/// is its checkpoint state.
class RecordingSession final : public SessionBase {
 public:
  explicit RecordingSession(const char* paradigm = "unknown")
      : SessionBase(
            SessionBaseConfig{.decision_retain = 16, .paradigm = paradigm}) {}

  std::vector<TimeUs> seen;  ///< Event times, in arrival order.
  /// The next on_load throws after it has replaced `seen`.
  bool fail_next_load = false;

 private:
  void on_event(const events::Event& event) override {
    seen.push_back(event.t);
  }
  void on_advance(TimeUs t) override {
    core::Decision d;
    d.t = t;
    d.label = static_cast<int>(seen.size());
    d.confidence = 1.0;
    emit(d);
  }
  bool checkpoint_supported() const override { return true; }
  void on_save(fault::CheckpointWriter& w) const override {
    w.pod_vector(seen);
  }
  void on_load(fault::CheckpointReader& r) override {
    r.pod_vector(seen);
    if (fail_next_load) {
      fail_next_load = false;
      throw Error(ErrorCode::CheckpointCorrupt, "injected load failure");
    }
  }
};

TEST(SessionManager, PreservesPerSessionFifoOrder) {
  SessionManager manager(/*burst=*/2);
  std::vector<RecordingSession*> raw;
  std::vector<SessionId> ids;
  for (int s = 0; s < 3; ++s) {
    auto session = std::make_unique<RecordingSession>();
    raw.push_back(session.get());
    ids.push_back(manager.add(std::move(session)));
  }
  EXPECT_EQ(manager.session_count(), 3);

  // Interleave submissions across sessions; each session's own order must
  // survive any pump schedule.
  for (TimeUs t = 0; t < 10; ++t) {
    for (size_t s = 0; s < ids.size(); ++s) {
      manager.submit(ids[s], event_at(t * 100 + static_cast<TimeUs>(s)));
    }
  }
  manager.pump_all();

  for (size_t s = 0; s < raw.size(); ++s) {
    ASSERT_EQ(raw[s]->seen.size(), 10u);
    for (TimeUs t = 0; t < 10; ++t) {
      EXPECT_EQ(raw[s]->seen[static_cast<size_t>(t)],
                t * 100 + static_cast<TimeUs>(s));
    }
  }
}

TEST(SessionManager, OpStreamsAreIdenticalAcrossThreadCounts) {
  auto run = [](Index threads) {
    const Index previous = par::thread_count();
    par::set_thread_count(threads);
    SessionManager manager(/*burst=*/1);  // worst case: maximal interleaving
    std::vector<RecordingSession*> raw;
    std::vector<SessionId> ids;
    for (int s = 0; s < 5; ++s) {
      auto session = std::make_unique<RecordingSession>();
      raw.push_back(session.get());
      ids.push_back(manager.add(std::move(session)));
    }
    for (TimeUs t = 0; t < 20; ++t) {
      for (size_t s = 0; s < ids.size(); ++s) {
        manager.submit(ids[s], event_at(t));
        if (t % 4 == 3) manager.submit_advance(ids[s], t + 1);
      }
      if (t % 2 == 0) manager.pump();
    }
    manager.pump_all();
    std::vector<std::vector<TimeUs>> streams;
    for (auto* session : raw) streams.push_back(session->seen);
    par::set_thread_count(previous);
    return streams;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(SessionManager, BurstBoundsOpsPerRound) {
  SessionManager manager(/*burst=*/2);
  auto session = std::make_unique<RecordingSession>();
  auto* raw = session.get();
  const SessionId id = manager.add(std::move(session));

  for (TimeUs t = 0; t < 5; ++t) manager.submit(id, event_at(t));
  EXPECT_EQ(manager.queued(id), 5);
  EXPECT_EQ(manager.pump(), 2);  // one round, burst ops
  EXPECT_EQ(raw->seen.size(), 2u);
  EXPECT_EQ(manager.queued(id), 3);
  manager.pump_all();
  EXPECT_EQ(manager.queued(id), 0);
  EXPECT_EQ(raw->seen.size(), 5u);
  EXPECT_EQ(manager.pump(), 0);  // empty queues: nothing to do
}

TEST(SessionManager, ChargesQueueLossesToSessionStats) {
  SessionManager manager;
  ManagedSessionConfig config;
  config.queue_capacity = 2;
  config.overflow = OverflowPolicy::DropNewest;
  const SessionId id = manager.add(std::make_unique<RecordingSession>(), config);

  EXPECT_TRUE(manager.submit(id, event_at(1)));
  EXPECT_TRUE(manager.submit(id, event_at(2)));
  EXPECT_FALSE(manager.submit(id, event_at(3)));  // queue full
  manager.pump_all();

  const core::SessionStats stats = manager.stats(id);
  EXPECT_EQ(stats.events_fed, 2);
  EXPECT_EQ(stats.events_dropped, 1);
}

TEST(SessionManager, DropOldestKeepsFreshOps) {
  SessionManager manager;
  ManagedSessionConfig config;
  config.queue_capacity = 2;
  config.overflow = OverflowPolicy::DropOldest;
  auto session = std::make_unique<RecordingSession>();
  auto* raw = session.get();
  const SessionId id = manager.add(std::move(session), config);

  manager.submit(id, event_at(1));
  manager.submit(id, event_at(2));
  manager.submit(id, event_at(3));  // evicts t=1
  manager.pump_all();

  ASSERT_EQ(raw->seen.size(), 2u);
  EXPECT_EQ(raw->seen[0], 2);
  EXPECT_EQ(raw->seen[1], 3);
  EXPECT_EQ(manager.stats(id).events_dropped, 1);
}

TEST(SessionManager, DrainForwardsToTheSession) {
  SessionManager manager;
  const SessionId id = manager.add(std::make_unique<RecordingSession>());
  manager.submit_advance(id, 50);
  manager.submit_advance(id, 60);
  manager.pump_all();

  std::vector<core::Decision> out;
  EXPECT_EQ(manager.drain(id, out), 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].t, 50);
  EXPECT_EQ(out[1].t, 60);
  EXPECT_EQ(manager.drain(id, out), 0);
  EXPECT_EQ(manager.stats(id).decisions_emitted, 2);
}

TEST(SessionManager, QueueStatsExposeThePerSessionLedger) {
  SessionManager manager;
  ManagedSessionConfig config;
  config.queue_capacity = 2;
  config.overflow = OverflowPolicy::DropNewest;
  const SessionId id = manager.add(std::make_unique<RecordingSession>(), config);

  manager.submit(id, event_at(1));
  manager.submit(id, event_at(2));
  manager.submit(id, event_at(3));  // rejected
  manager.pump_all();

  const EventQueue::Stats& q = manager.queue_stats(id);
  EXPECT_EQ(q.pushed, 2);
  EXPECT_EQ(q.dropped, 1);
  EXPECT_EQ(q.popped, 2);
  EXPECT_THROW(manager.queue_stats(7), Error);
}

TEST(SessionManager, AggregateStatsSumAcrossSessions) {
  SessionManager manager;
  ManagedSessionConfig tight;
  tight.queue_capacity = 2;
  tight.overflow = OverflowPolicy::DropNewest;
  const SessionId a = manager.add(std::make_unique<RecordingSession>(), tight);
  const SessionId b = manager.add(std::make_unique<RecordingSession>());

  manager.submit(a, event_at(1));
  manager.submit(a, event_at(2));
  manager.submit(a, event_at(3));  // lost at a's queue
  manager.submit(b, event_at(1));
  manager.submit_advance(b, 10);   // b emits one decision
  manager.pump_all();

  SessionManager::AggregateStats want;
  want.sessions = 2;
  want.totals.events_fed = 3;
  want.totals.events_dropped = 1;
  want.totals.decisions_emitted = 1;
  want.queues = {.pushed = 4, .dropped = 1, .popped = 4};  // 2 at a, 2 at b
  EXPECT_EQ(manager.stats(), want);
}

// Sessions carry no registry series of their own: adding tenants costs no
// registration and grows no recording thread's shard.
TEST(SessionManager, RegistrySeriesDoNotGrowWithSessions) {
  SessionManager manager;
  // The first session registers its paradigm's shared counters (one set
  // per paradigm, not per session); count from there.
  manager.add(std::make_unique<RecordingSession>());
  const auto count = [] {
    const obs::MetricsSnapshot snap = obs::snapshot();
    return std::vector<size_t>{snap.histograms.size(), snap.counters.size(),
                               snap.gauges.size()};
  };
  const std::vector<size_t> before = count();
  for (int s = 0; s < 256; ++s) {
    manager.add(std::make_unique<RecordingSession>());
  }
  EXPECT_EQ(count(), before);
}

TEST(SessionManager, WiresLossCountersIntoTheMetricsRegistry) {
  obs::MetricsRegistry::instance().reset();
  obs::set_enabled(true);
  SessionManager manager;
  ManagedSessionConfig config;
  config.queue_capacity = 2;
  config.overflow = OverflowPolicy::DropNewest;
  const SessionId id = manager.add(std::make_unique<RecordingSession>(), config);

  // The first op a queue admits is latency-sampled (1-in-kLatencySampleEvery
  // by admit index); make it an advance so a decision closes the sample.
  manager.submit_advance(id, 10);
  manager.pump_all();
  manager.submit(id, event_at(11));
  manager.submit(id, event_at(12));
  manager.submit(id, event_at(13));  // dropped -> counted in the ledger
  manager.pump_all();

  // The registry holds the per-round instruments; the loss counters and the
  // session gauge come from the ledger export.
  obs::MetricsSnapshot snap = obs::snapshot();
  manager.export_metrics(snap);
  const std::int64_t* dropped = snap.counter("evd_queue_ops_dropped_total");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(*dropped, 1);
  const std::int64_t* ops = snap.counter("evd_runtime_ops_processed_total");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(*ops, 3);
  const double* sessions = snap.gauge("evd_sessions_active");
  ASSERT_NE(sessions, nullptr);
  EXPECT_EQ(*sessions, 1.0);
  const obs::HistogramSnapshot* latency =
      snap.histogram("evd_feed_to_decision_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1);  // the sampled, advance-triggered decision
}

// The registry keeps only what pump workers record per round; every ledger
// count reaches a scrape through export_metrics() instead.
TEST(SessionManager, RegistersOnlyThePerRoundInstruments) {
  const std::string label = "probe=\"per_round\"";
  SessionManager manager(/*burst=*/256, label);
  manager.add(std::make_unique<RecordingSession>());
  const obs::MetricsSnapshot snap = obs::snapshot();
  std::vector<std::string> names;
  const auto collect = [&](const auto& series) {
    for (const auto& entry : series) {
      if (entry.first.find(label) != std::string::npos) {
        names.push_back(entry.first);
      }
    }
  };
  collect(snap.counters);
  collect(snap.gauges);
  collect(snap.histograms);
  std::sort(names.begin(), names.end());
  const std::string l = "{" + label + "}";
  EXPECT_EQ(names, (std::vector<std::string>{
                       "evd_feed_to_decision_us" + l,
                       "evd_overload_level" + l,
                       "evd_runtime_ops_processed_total" + l,
                       "evd_runtime_pump_rounds_total" + l,
                       "evd_sched_planned_rounds_total" + l}));
}

// Each exported series is its ledger field, read at export time, so the
// obs kill switch cannot change it.
TEST(SessionManager, ExportedSeriesEqualTheirLedgerFields) {
  const bool was_enabled = obs::enabled();
  for (const bool obs_on : {true, false}) {
    SCOPED_TRACE(obs_on ? "obs on" : "obs off");
    obs::set_enabled(obs_on);
    fault::Injector::instance().reset();
    SessionManager manager(/*burst=*/4);
    ManagedSessionConfig lossy;
    lossy.queue_capacity = 4;  // DropNewest
    lossy.rate_limit_eps = 1000.0;
    lossy.rate_limit_burst = 8.0;
    lossy.checkpoint_every = 4;  // a fault restores
    ManagedSessionConfig fragile;
    fragile.restore_on_fault = false;  // a fault quarantines
    const SessionId a =
        manager.add(std::make_unique<RecordingSession>("alpha"), lossy);
    const SessionId b = manager.add(std::make_unique<RecordingSession>("beta"));
    const SessionId c =
        manager.add(std::make_unique<RecordingSession>("beta"), fragile);

    // a: 12 feeds at one instant — 4 rate-limited, 4 queue drops.
    for (TimeUs t = 0; t < 12; ++t) manager.submit(a, event_at(t));
    // b: 40 undrained decisions overflow its 2*16 sink.
    for (TimeUs t = 0; t < 40; ++t) manager.submit_advance(b, t);
    manager.pump_all();
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::SessionThrow;
    plan.max_fires = 1;
    for (const SessionId victim : {a, c}) {
      plan.target = victim;
      fault::ScopedInjection injection("runtime.pump.op_fault", plan);
      manager.submit_advance(victim, 100);
      manager.pump_all();
    }
    ASSERT_EQ(manager.state(c), SessionState::Faulted);
    manager.submit(c, event_at(200));  // refused: quarantined

    const SessionManager::AggregateStats stats = manager.stats();
    const SessionManager::SheddingStats& shed = stats.shedding;
    const std::int64_t shed_total = shed.rate_limited + shed.shed_noise +
                                    shed.rejected_overload +
                                    shed.rejected_faulted;
    EXPECT_EQ(shed.rate_limited, 4);
    EXPECT_EQ(shed.rejected_faulted, 1);
    EXPECT_EQ(stats.queues.dropped, 4);
    EXPECT_EQ(stats.faults.faults, 2);
    EXPECT_EQ(stats.faults.restores, 1);

    obs::MetricsSnapshot snap;
    manager.export_metrics(snap);
    const auto counter = [&](const std::string& name) {
      const std::int64_t* v = snap.counter(name);
      return v == nullptr ? std::int64_t{-1} : *v;
    };
    EXPECT_EQ(counter("evd_queue_ops_dropped_total"), stats.queues.dropped);
    EXPECT_EQ(counter("evd_admission_shed_total"), shed_total);
    EXPECT_EQ(counter("evd_fault_session_faults_total"), stats.faults.faults);
    EXPECT_EQ(counter("evd_fault_restores_total"), stats.faults.restores);
    ASSERT_NE(snap.gauge("evd_sessions_active"), nullptr);
    EXPECT_EQ(*snap.gauge("evd_sessions_active"), 3.0);
    const core::SessionStats alpha = manager.session(a).stats();
    core::SessionStats beta = manager.session(b).stats();
    beta.events_fed += manager.session(c).stats().events_fed;
    beta.decisions_emitted += manager.session(c).stats().decisions_emitted;
    beta.decisions_dropped += manager.session(c).stats().decisions_dropped;
    EXPECT_GT(beta.decisions_dropped, 0);
    for (const auto& [paradigm, want] :
         {std::pair{"alpha", alpha}, std::pair{"beta", beta}}) {
      const std::string l = std::string("{paradigm=\"") + paradigm + "\"}";
      EXPECT_EQ(counter("evd_events_fed_total" + l), want.events_fed);
      EXPECT_EQ(counter("evd_decisions_emitted_total" + l),
                want.decisions_emitted);
      EXPECT_EQ(counter("evd_sink_decisions_dropped_total" + l),
                want.decisions_dropped);
    }
    EXPECT_EQ(alpha.events_fed + beta.events_fed, stats.totals.events_fed);
    // Those are all the series, each kind sorted by name.
    EXPECT_EQ(snap.counters.size(), 10u);
    EXPECT_EQ(snap.gauges.size(), 1u);
    EXPECT_TRUE(snap.histograms.empty());
    const auto by_name = [](const auto& x, const auto& y) {
      return x.first < y.first;
    };
    EXPECT_TRUE(
        std::is_sorted(snap.counters.begin(), snap.counters.end(), by_name));
  }
  obs::set_enabled(was_enabled);
}

/// Every public id-taking API raises a *typed* evd::Error — never UB, never
/// an assert — and the code pins the reason.
TEST(SessionManager, RejectsNullSessionsAndBadIds) {
  SessionManager manager;
  try {
    manager.add(nullptr);
    FAIL() << "add(nullptr) must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
  }
  EXPECT_THROW(manager.queued(0), Error);
  const SessionId id = manager.add(std::make_unique<RecordingSession>());
  EXPECT_EQ(id, 0);
  // Out-of-range on every accessor, both sides of the range, const included.
  const SessionManager& cmanager = manager;
  for (const SessionId bad : {SessionId{-1}, SessionId{1}, SessionId{1000}}) {
    try {
      manager.queued(bad);
      FAIL() << "queued(" << bad << ") must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::InvalidSessionId);
      EXPECT_NE(std::string(e.what()).find("InvalidSessionId"),
                std::string::npos);
    }
    EXPECT_THROW(manager.session(bad), Error);
    EXPECT_THROW(cmanager.session(bad), Error);
    EXPECT_THROW(manager.stats(bad), Error);
    EXPECT_THROW(manager.queue_stats(bad), Error);
    EXPECT_THROW(manager.state(bad), Error);
    EXPECT_THROW(manager.fault_message(bad), Error);
    EXPECT_THROW(manager.restore(bad), Error);
    EXPECT_THROW(manager.checkpoint_now(bad), Error);
    EXPECT_THROW(manager.submit(bad, event_at(1)), Error);
    EXPECT_THROW(manager.submit_advance(bad, 1), Error);
    std::vector<core::Decision> out;
    EXPECT_THROW(manager.drain(bad, out), Error);
  }
  // The valid id still works after all that.
  EXPECT_EQ(manager.queued(id), 0);
  EXPECT_EQ(manager.state(id), SessionState::Active);
}

TEST(SessionManager, RejectsNonPositiveQueueCapacity) {
  SessionManager manager;
  ManagedSessionConfig config;
  config.queue_capacity = 0;
  try {
    manager.add(std::make_unique<RecordingSession>(), config);
    FAIL() << "queue_capacity=0 must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
  }
}

// The pool pops ops without touching the aggregate ledger; pump() settles
// it once per round. Overflow on both policies, a recovered fault, a
// quarantine that drains a backlog and a retire must all leave it exact.
TEST(SessionManager, OccupancyLedgerIsExactAfterEveryPump) {
  const Index previous = par::thread_count();
  par::set_thread_count(4);
  fault::Injector::instance().reset();
  SessionManager manager(/*burst=*/2);
  std::vector<Index> capacity;
  const auto add = [&](Index cap, OverflowPolicy overflow, Index every) {
    ManagedSessionConfig config;
    config.queue_capacity = cap;
    config.overflow = overflow;
    config.checkpoint_every = every;
    capacity.push_back(cap);
    return manager.add(std::make_unique<RecordingSession>(), config);
  };
  const SessionId oldest = add(3, OverflowPolicy::DropOldest, 0);
  const SessionId newest = add(3, OverflowPolicy::DropNewest, 0);
  const SessionId restored = add(16, OverflowPolicy::DropNewest, 2);
  const SessionId quarantined = add(16, OverflowPolicy::DropNewest, 0);
  const SessionId retired = add(16, OverflowPolicy::DropNewest, 0);
  const SessionId steady = add(16, OverflowPolicy::DropNewest, 0);

  const auto expect_exact = [&] {
    Index queued = 0;
    Index live = 0;
    for (SessionId id = 0; id < manager.session_count(); ++id) {
      queued += manager.queued(id);
      if (manager.state(id) != SessionState::Retired) {
        live += capacity[static_cast<size_t>(id)];
      }
    }
    EXPECT_DOUBLE_EQ(manager.occupancy(), static_cast<double>(queued) /
                                              static_cast<double>(live));
  };
  TimeUs t = 0;
  const auto submit_all = [&](Index ops) {
    for (Index k = 0; k < ops; ++k, ++t) {
      for (SessionId id = 0; id < manager.session_count(); ++id) {
        manager.submit(id, event_at(t));
      }
    }
    expect_exact();
  };
  const auto pump_checked = [&](Index rounds) {
    for (Index r = 0; r < rounds; ++r) {
      manager.pump();
      expect_exact();
    }
  };

  submit_all(5);  // overflows both 3-slot queues
  pump_checked(1);
  {
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::SessionThrow;
    plan.target = restored;
    plan.after = 3;
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    submit_all(4);
    pump_checked(3);
  }
  EXPECT_EQ(manager.state(restored), SessionState::Active);
  {
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::SessionThrow;
    plan.target = quarantined;
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    submit_all(6);
    pump_checked(1);
  }
  EXPECT_EQ(manager.state(quarantined), SessionState::Faulted);
  EXPECT_EQ(manager.queued(quarantined), 0);
  ASSERT_GT(manager.queued(retired), 0);
  manager.retire(retired);
  expect_exact();
  submit_all(3);
  Index rounds = 0;
  for (; manager.pump() > 0; ++rounds) expect_exact();
  expect_exact();
  EXPECT_GT(rounds, 0);
  EXPECT_EQ(manager.occupancy(), 0.0);

  const SessionManager::AggregateStats agg = manager.stats();
  EXPECT_EQ(agg.faults.faults, 2);
  EXPECT_EQ(agg.faults.restores, 1);
  EXPECT_EQ(agg.faults.quarantined_sessions, 1);
  EXPECT_GT(manager.queue_stats(oldest).dropped, 0);
  EXPECT_GT(manager.queue_stats(newest).dropped, 0);
  EXPECT_EQ(manager.queue_stats(steady).dropped, 0);
  par::set_thread_count(previous);
}

// A restore rolls the session back to its last checkpoint and replays. The
// consumer drained decisions after that checkpoint; the replay must not
// hand them over a second time.
TEST(SessionManager, RestoreAfterDrainDeliversEachDecisionOnce) {
  gnn::GnnPipelineConfig gnn_config;
  gnn_config.width = 16;
  gnn_config.height = 16;
  gnn_config.num_classes = 2;
  gnn_config.model.hidden = 8;
  gnn_config.model.layers = 2;
  gnn_config.stream_stride = 1;
  gnn::GnnPipeline pipeline(gnn_config);
  std::vector<events::Event> events;
  for (TimeUs k = 0; k < 64; ++k) events.push_back(event_at(k * 100));

  const auto direct = pipeline.open_session(16, 16);
  for (const auto& e : events) direct->feed(e);
  const std::vector<core::Decision> want = test::drained(*direct);
  ASSERT_EQ(want.size(), events.size());

  fault::Injector::instance().reset();
  SessionManager manager(/*burst=*/1);
  ManagedSessionConfig config;
  config.checkpoint_every = 8;
  config.restore_on_fault = true;
  const SessionId id = manager.add(pipeline.open_session(16, 16), config);
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.target = id;
  plan.after = 12;
  plan.max_fires = 1;
  std::vector<core::Decision> got;
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    for (const auto& e : events) {
      manager.submit(id, e);
      manager.pump_all();
      manager.drain(id, got);
    }
    EXPECT_EQ(fault::Injector::instance().fires("runtime.pump.op_fault"), 1);
  }
  EXPECT_EQ(manager.stats().faults.restores, 1);
  EXPECT_EQ(got, want);
}

// A manual restore whose load fails part-way leaves the session quarantined
// and exactly as the fault left it: the next restore starts from there.
TEST(SessionManager, FailedRestoreLeavesSessionFaultedAndUnchanged) {
  fault::Injector::instance().reset();
  SessionManager manager(/*burst=*/4);
  ManagedSessionConfig config;
  config.checkpoint_every = 4;
  config.restore_on_fault = false;  // quarantine; restore by hand below
  auto owned = std::make_unique<RecordingSession>();
  RecordingSession& session = *owned;
  const SessionId id = manager.add(std::move(owned), config);
  for (TimeUs t = 0; t < 5; ++t) {
    manager.submit(id, event_at(t * 100));
    manager.submit_advance(id, t * 100 + 50);
  }
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.target = id;
  plan.after = 7;  // the 8th op faults, 3 ops after the checkpoint
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    manager.pump_all();
  }
  ASSERT_EQ(manager.state(id), SessionState::Faulted);
  const std::string message = manager.fault_message(id);
  const std::vector<TimeUs> seen = session.seen;
  const core::SessionStats stats = session.stats();
  ASSERT_EQ(seen.size(), 4u);
  ASSERT_EQ(stats.decisions_emitted, 3);

  session.fail_next_load = true;
  try {
    manager.restore(id);
    FAIL() << "a failed load must throw out of restore";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::CheckpointCorrupt);
  }
  EXPECT_EQ(manager.state(id), SessionState::Faulted);
  EXPECT_EQ(manager.fault_message(id), message);
  EXPECT_EQ(manager.stats().faults.restores, 0);
  EXPECT_EQ(session.seen, seen);
  EXPECT_EQ(session.stats(), stats);
  std::vector<core::Decision> undrained;
  manager.drain(id, undrained);
  ASSERT_EQ(undrained.size(), 3u);
  EXPECT_EQ(undrained.back().t, 250);
  EXPECT_EQ(undrained.back().label, 3);

  EXPECT_TRUE(manager.restore(id));
  EXPECT_EQ(manager.state(id), SessionState::Active);
  EXPECT_EQ(session.seen, seen);
}

// pump() skips a session whose ready flag is clear. A push onto a full
// queue must leave the flag set, whichever op the overflow policy dropped.
TEST(SessionManager, OverflowOnAFullQueueKeepsTheSessionPumped) {
  for (const OverflowPolicy policy :
       {OverflowPolicy::DropOldest, OverflowPolicy::DropNewest}) {
    SessionManager manager(/*burst=*/1);
    ManagedSessionConfig config;
    config.queue_capacity = 1;
    config.overflow = policy;
    auto owned = std::make_unique<RecordingSession>();
    RecordingSession& session = *owned;
    const SessionId id = manager.add(std::move(owned), config);
    manager.submit(id, event_at(1));
    EXPECT_EQ(manager.pump(), 1);  // the visit empties the queue
    EXPECT_EQ(manager.pump(), 0);
    EXPECT_TRUE(manager.submit(id, event_at(2)));
    EXPECT_FALSE(manager.submit(id, event_at(3)));  // full: one op is lost
    EXPECT_EQ(manager.queued(id), 1);
    EXPECT_EQ(manager.pump(), 1);
    ASSERT_EQ(session.seen.size(), 2u);
    EXPECT_EQ(session.seen[1], policy == OverflowPolicy::DropOldest ? 3 : 2);
    EXPECT_EQ(manager.pump(), 0);
  }
}

// A fault mid-burst quarantines the session and drains its backlog: later
// rounds serve only its neighbour. After restore() a submit puts it back
// in the pump's scan.
TEST(SessionManager, QuarantinedMidBurstIsPumpedAgainOnlyAfterRestore) {
  fault::Injector::instance().reset();
  SessionManager manager(/*burst=*/4);
  ManagedSessionConfig config;
  config.checkpoint_every = 64;  // the checkpoint add() takes is the only one
  config.restore_on_fault = false;
  auto owned = std::make_unique<RecordingSession>();
  RecordingSession& session = *owned;
  const SessionId id = manager.add(std::move(owned), config);
  auto neighbour_owned = std::make_unique<RecordingSession>();
  RecordingSession& neighbour = *neighbour_owned;
  const SessionId other = manager.add(std::move(neighbour_owned));
  for (TimeUs t = 0; t < 6; ++t) {
    manager.submit(id, event_at(t));
    manager.submit(other, event_at(t));
  }
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.target = id;
  plan.after = 1;  // the second op of the first burst faults
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    EXPECT_EQ(manager.pump(), 2 + 4);  // the faulting op is counted
  }
  ASSERT_EQ(manager.state(id), SessionState::Faulted);
  EXPECT_EQ(manager.queued(id), 0);
  EXPECT_EQ(manager.pump(), 2);  // the neighbour's last two ops
  EXPECT_EQ(manager.pump(), 0);
  EXPECT_EQ(session.seen, std::vector<TimeUs>{0});
  EXPECT_EQ(neighbour.seen.size(), 6u);
  EXPECT_FALSE(manager.submit(id, event_at(100)));  // refused while faulted
  EXPECT_EQ(manager.pump(), 0);

  ASSERT_TRUE(manager.restore(id));  // the initial checkpoint + op 0 replayed
  EXPECT_TRUE(manager.submit(id, event_at(200)));
  EXPECT_EQ(manager.pump(), 1);
  EXPECT_EQ(session.seen, (std::vector<TimeUs>{0, 200}));
  EXPECT_EQ(manager.occupancy(), 0.0);
}

// retire() drains the backlog to the loss ledger: nothing of the tombstone
// is left to pump, and its neighbour is served as before.
TEST(SessionManager, RetireWithABacklogLeavesNothingPumpable) {
  SessionManager manager(/*burst=*/2);
  const SessionId retired = manager.add(std::make_unique<RecordingSession>());
  auto owned = std::make_unique<RecordingSession>();
  RecordingSession& kept = *owned;
  const SessionId other = manager.add(std::move(owned));
  for (TimeUs t = 0; t < 5; ++t) manager.submit(retired, event_at(t));
  manager.retire(retired);
  EXPECT_EQ(manager.queued(retired), 0);
  EXPECT_EQ(manager.pump(), 0);
  EXPECT_FALSE(manager.submit(retired, event_at(9)));
  EXPECT_EQ(manager.pump(), 0);
  manager.submit(other, event_at(10));
  EXPECT_EQ(manager.pump(), 1);
  EXPECT_EQ(kept.seen, std::vector<TimeUs>{10});
  EXPECT_EQ(manager.occupancy(), 0.0);
}

}  // namespace
}  // namespace evd::runtime
