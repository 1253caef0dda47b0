// Session quarantine: a faulting session is isolated — backlog drained to
// loss stats, further submits refused — while every other session keeps
// serving untouched. Manual restore() returns a checkpointed session to
// service. (Bitwise neighbor-invariance is the runtime.fault_isolation
// oracle's job; this file pins the lifecycle mechanics.)
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "runtime/session_manager.hpp"

namespace evd::runtime {
namespace {

events::Event event_at(TimeUs t, Index x = 3, Index y = 3) {
  events::Event e;
  e.x = static_cast<std::int16_t>(x);
  e.y = static_cast<std::int16_t>(y);
  e.polarity = Polarity::On;
  e.t = t;
  return e;
}

/// Minimal deterministic session; no checkpoint support.
class PlainSession final : public SessionBase {
 public:
  PlainSession()
      : SessionBase(
            SessionBaseConfig{.decision_retain = 64, .paradigm = "test"}) {}

  std::vector<TimeUs> seen;

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
};

/// Same behaviour, but checkpointable: the event-time log is the state.
class CheckpointedSession final : public SessionBase {
 public:
  CheckpointedSession()
      : SessionBase(
            SessionBaseConfig{.decision_retain = 64, .paradigm = "test"}) {}

  std::vector<TimeUs> seen;

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
  void on_load(fault::CheckpointReader& r) override { r.pod_vector(seen); }
};

class IsolationTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().reset(); }
  void TearDown() override {
    fault::Injector::instance().reset();
    fault::set_enabled(false);
  }
};

TEST_F(IsolationTest, InjectedOpFaultQuarantinesOnlyTheTarget) {
  SessionManager manager(/*burst=*/4);
  std::vector<PlainSession*> raw;
  std::vector<SessionId> ids;
  for (int s = 0; s < 3; ++s) {
    auto session = std::make_unique<PlainSession>();
    raw.push_back(session.get());
    ids.push_back(manager.add(std::move(session)));
  }
  for (TimeUs t = 0; t < 8; ++t) {
    for (SessionId id : ids) manager.submit(id, event_at(t));
  }
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.target = ids[1];
  plan.after = 2;
  plan.max_fires = 1;
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    manager.pump_all();
  }

  EXPECT_EQ(manager.state(ids[1]), SessionState::Faulted);
  EXPECT_NE(manager.fault_message(ids[1]).find("InjectedFault"),
            std::string::npos);
  EXPECT_EQ(manager.state(ids[0]), SessionState::Active);
  EXPECT_EQ(manager.state(ids[2]), SessionState::Active);
  EXPECT_EQ(raw[0]->seen.size(), 8u);
  EXPECT_EQ(raw[2]->seen.size(), 8u);
  EXPECT_EQ(raw[1]->seen.size(), 2u);  // ops before the fault landed

  const SessionManager::AggregateStats agg = manager.stats();
  EXPECT_EQ(agg.faults.faults, 1);
  EXPECT_EQ(agg.faults.quarantined_sessions, 1);
  EXPECT_EQ(agg.faults.restores, 0);
}

TEST_F(IsolationTest, QuarantineDrainsTheBacklogToLossStats) {
  SessionManager manager;
  const SessionId id = manager.add(std::make_unique<PlainSession>());
  for (TimeUs t = 0; t < 10; ++t) manager.submit(id, event_at(t));

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.max_fires = 1;
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    manager.pump_all();
  }

  EXPECT_EQ(manager.state(id), SessionState::Faulted);
  EXPECT_EQ(manager.queued(id), 0);  // backlog drained, not left to rot
  const core::SessionStats stats = manager.stats(id);
  EXPECT_EQ(stats.events_fed, 0);
  // The faulting op plus the 9 drained behind it are all accounted as lost.
  EXPECT_EQ(stats.events_dropped, 10);
  EXPECT_EQ(manager.stats().faults.quarantine_dropped, 10);
}

TEST_F(IsolationTest, SubmitsToAFaultedSessionAreRefused) {
  SessionManager manager;
  const SessionId id = manager.add(std::make_unique<PlainSession>());
  manager.submit(id, event_at(1));
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.max_fires = 1;
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    manager.pump_all();
  }
  ASSERT_EQ(manager.state(id), SessionState::Faulted);

  EXPECT_FALSE(manager.submit(id, event_at(2)));
  EXPECT_FALSE(manager.submit_advance(id, 3));
  EXPECT_EQ(manager.queued(id), 0);
  EXPECT_EQ(manager.stats().shedding.rejected_faulted, 2);
}

TEST_F(IsolationTest, ArenaExhaustionFaultIsCaughtLikeAnyOther) {
  SessionManager manager;
  const SessionId id = manager.add(std::make_unique<PlainSession>());
  manager.submit(id, event_at(1));
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::ArenaExhaustion;
  plan.max_fires = 1;
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    manager.pump_all();
  }
  EXPECT_EQ(manager.state(id), SessionState::Faulted);
  EXPECT_FALSE(manager.fault_message(id).empty());
}

TEST_F(IsolationTest, ValidationGuardFaultsOnMalformedGeometry) {
  SessionManager manager;
  ManagedSessionConfig config;
  config.validate_width = 16;
  config.validate_height = 16;
  const SessionId id = manager.add(std::make_unique<PlainSession>(), config);
  manager.submit(id, event_at(1, 5, 5));
  manager.submit(id, event_at(2, 100, 5));  // x out of [0, 16)
  manager.pump_all();

  EXPECT_EQ(manager.state(id), SessionState::Faulted);
  EXPECT_NE(manager.fault_message(id).find("MalformedEvent"),
            std::string::npos);
}

TEST_F(IsolationTest, ValidationGuardFaultsOnTimeRegression) {
  SessionManager manager;
  ManagedSessionConfig config;
  config.validate_monotone_time = true;
  const SessionId id = manager.add(std::make_unique<PlainSession>(), config);
  manager.submit(id, event_at(100));
  manager.submit(id, event_at(50));  // regresses below the last feed
  manager.pump_all();

  EXPECT_EQ(manager.state(id), SessionState::Faulted);
  EXPECT_NE(manager.fault_message(id).find("OutOfOrderEvent"),
            std::string::npos);
}

TEST_F(IsolationTest, IngressCorruptionSiteTripsTheValidationGuard) {
  // The caller submits perfectly good events; the armed ingress site
  // corrupts one on admission, and the guard catches it at apply time —
  // the full degraded-sensor path, end to end.
  SessionManager manager;
  ManagedSessionConfig config;
  config.validate_width = 16;
  config.validate_height = 16;
  const SessionId id = manager.add(std::make_unique<PlainSession>(), config);
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::MalformedEvent;
  plan.max_fires = 1;
  {
    fault::ScopedInjection injection("runtime.submit.malformed", plan);
    manager.submit(id, event_at(1, 5, 5));
  }
  manager.pump_all();
  EXPECT_EQ(manager.state(id), SessionState::Faulted);
  EXPECT_NE(manager.fault_message(id).find("MalformedEvent"),
            std::string::npos);
}

TEST_F(IsolationTest, OutOfOrderSiteSkewsTimestampsBackwards) {
  SessionManager manager;
  auto session = std::make_unique<PlainSession>();
  auto* raw = session.get();
  const SessionId id = manager.add(std::move(session));
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::OutOfOrderEvent;
  plan.time_skew_us = 400;
  plan.max_fires = 1;
  {
    fault::ScopedInjection injection("runtime.submit.out_of_order", plan);
    manager.submit(id, event_at(1000));
  }
  manager.pump_all();
  ASSERT_EQ(raw->seen.size(), 1u);
  EXPECT_EQ(raw->seen[0], 600);
}

TEST_F(IsolationTest, DuplicateAndStormSitesMultiplyTheBacklog) {
  SessionManager manager;
  auto session = std::make_unique<PlainSession>();
  auto* raw = session.get();
  const SessionId id = manager.add(std::move(session));

  fault::FaultPlan dup;
  dup.kind = fault::FaultKind::DuplicateEvent;
  dup.max_fires = 1;
  {
    fault::ScopedInjection injection("runtime.submit.duplicate", dup);
    manager.submit(id, event_at(7));
  }
  EXPECT_EQ(manager.queued(id), 2);  // the event and its duplicate

  fault::FaultPlan storm;
  storm.kind = fault::FaultKind::OverflowStorm;
  storm.storm_extra = 3;
  storm.max_fires = 1;
  {
    fault::ScopedInjection injection("runtime.submit.overflow_storm", storm);
    manager.submit(id, event_at(8));
  }
  EXPECT_EQ(manager.queued(id), 6);  // +1 admitted +3 storm extras

  manager.pump_all();
  EXPECT_EQ(raw->seen.size(), 6u);
  EXPECT_EQ(manager.state(id), SessionState::Active);
}

TEST_F(IsolationTest, ManualRestoreReturnsACheckpointedSessionToService) {
  SessionManager manager;
  ManagedSessionConfig config;
  config.checkpoint_every = 100;     // initial checkpoint at add() only
  config.restore_on_fault = false;   // force quarantine, restore by hand
  auto session = std::make_unique<CheckpointedSession>();
  auto* raw = session.get();
  const SessionId id = manager.add(std::move(session), config);

  for (TimeUs t = 0; t < 3; ++t) manager.submit(id, event_at(t));
  manager.pump_all();
  ASSERT_EQ(raw->seen.size(), 3u);

  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.max_fires = 1;
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    manager.submit(id, event_at(3));
    manager.pump_all();
  }
  ASSERT_EQ(manager.state(id), SessionState::Faulted);

  // Restore rolls back to the initial checkpoint and replays the three
  // logged ops; the faulting op itself was quarantined away.
  EXPECT_TRUE(manager.restore(id));
  EXPECT_EQ(manager.state(id), SessionState::Active);
  EXPECT_TRUE(manager.fault_message(id).empty());
  ASSERT_EQ(raw->seen.size(), 3u);
  for (TimeUs t = 0; t < 3; ++t) {
    EXPECT_EQ(raw->seen[static_cast<size_t>(t)], t);
  }
  EXPECT_EQ(manager.stats().faults.restores, 1);
  EXPECT_EQ(manager.stats().faults.quarantined_sessions, 0);

  // And the session keeps serving.
  manager.submit(id, event_at(10));
  manager.submit_advance(id, 11);
  manager.pump_all();
  std::vector<core::Decision> out;
  ASSERT_GE(manager.drain(id, out), 1);
  EXPECT_EQ(out.back().label, 4);
}

TEST_F(IsolationTest, RestoreDeclinesWithoutACheckpoint) {
  SessionManager manager;
  const SessionId id = manager.add(std::make_unique<PlainSession>());
  manager.submit(id, event_at(1));
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::SessionThrow;
  plan.max_fires = 1;
  {
    fault::ScopedInjection injection("runtime.pump.op_fault", plan);
    manager.pump_all();
  }
  ASSERT_EQ(manager.state(id), SessionState::Faulted);
  EXPECT_FALSE(manager.restore(id));  // nothing to restore from
  EXPECT_EQ(manager.state(id), SessionState::Faulted);
  // checkpoint_now likewise declines for a non-checkpointing config.
  EXPECT_FALSE(manager.checkpoint_now(id));
}

TEST_F(IsolationTest, RestoreOnActiveSessionIsANoOp) {
  SessionManager manager;
  ManagedSessionConfig config;
  config.checkpoint_every = 4;
  const SessionId id =
      manager.add(std::make_unique<CheckpointedSession>(), config);
  EXPECT_TRUE(manager.restore(id));
  EXPECT_EQ(manager.state(id), SessionState::Active);
}

}  // namespace
}  // namespace evd::runtime
