// Plan-driven pumping in the SessionManager: installation rules, FIFO
// preservation under arbitrary plans, the round-robin default plan pumped
// without an installed one, plan carriage through checkpoint bytes, and
// fault interaction (quarantine under a single-region plan leaves
// neighbours bitwise unchanged).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "runtime/session_manager.hpp"
#include "sched/plan.hpp"

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

/// Every applied event time across sessions, keyed by the thread that
/// applied it. A region runs on one worker per round and the static chunk
/// deal keeps region r on the same worker every round, so each thread's
/// sequence is one region's interleaving of its sessions over all rounds.
class VisitLog {
 public:
  void record(TimeUs t) {
    std::lock_guard<std::mutex> lock(mutex_);
    by_thread_[std::this_thread::get_id()].push_back(t);
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    by_thread_.clear();
  }
  /// The per-thread sequences, sorted: which worker ran a region is not
  /// part of the schedule.
  std::vector<std::vector<TimeUs>> sequences() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<TimeUs>> out;
    for (const auto& [thread, times] : by_thread_) out.push_back(times);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::thread::id, std::vector<TimeUs>> by_thread_;
};

/// Deterministic recording session (the decision stream is the op stream).
/// With `visits` set, every applied event time also goes to that log.
class RecordingSession final : public SessionBase {
 public:
  explicit RecordingSession(VisitLog* visits = nullptr)
      : SessionBase(
            SessionBaseConfig{.decision_retain = 64, .paradigm = "test"}),
        visits_(visits) {}

  std::vector<TimeUs> seen;

 private:
  void on_event(const events::Event& event) override {
    seen.push_back(event.t);
    if (visits_ != nullptr) visits_->record(event.t);
  }
  void on_advance(TimeUs t) override {
    core::Decision d;
    d.t = t;
    d.label = static_cast<int>(seen.size());
    d.confidence = 1.0;
    emit(d);
  }

  VisitLog* visits_;
};

/// RecordingSession that can checkpoint: the event-time log is the state.
class CheckpointedRecordingSession final : public SessionBase {
 public:
  CheckpointedRecordingSession()
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

/// RAII guard: pin the pool size for a scope, restore on exit.
struct ScopedThreads {
  Index previous = par::thread_count();
  explicit ScopedThreads(Index n) { par::set_thread_count(n); }
  ~ScopedThreads() { par::set_thread_count(previous); }
};

/// Drain `manager` from inside a parallel region, as a shard worker does.
void pump_all_nested(SessionManager& manager) {
  par::parallel_for(0, 2, 1, [&](Index begin, Index) {
    if (begin == 0) manager.pump_all();
  });
}

/// Queue events t * 10 + s (t < ops[s]) on every session s.
void submit_events(SessionManager& manager, const std::vector<Index>& ops) {
  const Index most = *std::max_element(ops.begin(), ops.end());
  for (TimeUs t = 0; t < most; ++t) {
    for (Index s = 0; s < manager.session_count(); ++s) {
      if (t < ops[static_cast<size_t>(s)]) {
        manager.submit(s, event_at(t * 10 + s));
      }
    }
  }
}
void submit_events(SessionManager& manager, Index ops) {
  const auto n = static_cast<size_t>(manager.session_count());
  submit_events(manager, std::vector<Index>(n, ops));
}

/// What a VisitLog records when `plan` drains submit_events(ops): per
/// region, rounds of session-by-session visits, each taking up to the
/// plan's burst from its session's queue. A region with no ops records
/// nothing. Sorted like VisitLog::sequences().
std::vector<std::vector<TimeUs>> region_visits(const sched::Plan& plan,
                                               const std::vector<Index>& ops) {
  std::vector<std::vector<TimeUs>> out;
  for (const sched::PlanRegion& region : plan.regions) {
    std::vector<Index> next(region.sessions.size(), 0);
    std::vector<TimeUs> order;
    for (bool served = true; served;) {
      served = false;
      for (size_t i = 0; i < region.sessions.size(); ++i) {
        const Index queued = ops[static_cast<size_t>(region.sessions[i])];
        for (Index b = 0; b < plan.burst && next[i] < queued; ++b, ++next[i]) {
          order.push_back(next[i] * 10 + region.sessions[i]);
          served = true;
        }
      }
    }
    if (!order.empty()) out.push_back(std::move(order));
  }
  std::sort(out.begin(), out.end());
  return out;
}
std::vector<std::vector<TimeUs>> region_visits(const sched::Plan& plan,
                                               Index ops) {
  return region_visits(
      plan, std::vector<Index>(static_cast<size_t>(plan.session_count), ops));
}

/// A deliberately twisted plan for `n` sessions: one region visiting them
/// in reverse id order at a burst unlike the manager's — nothing like the
/// round-robin deal, which is the point.
sched::Plan reversed_plan(Index n, Index burst = 3) {
  sched::Plan plan;
  plan.session_count = n;
  plan.burst = burst;
  plan.regions.resize(1);
  for (Index s = n - 1; s >= 0; --s) plan.regions[0].sessions.push_back(s);
  return plan;
}

std::vector<std::vector<TimeUs>> run_schedule(SessionManager& manager,
                                              std::vector<RecordingSession*>&
                                                  raw,
                                              std::vector<SessionId>& ids,
                                              Index sessions) {
  for (Index s = 0; s < sessions; ++s) {
    auto session = std::make_unique<RecordingSession>();
    raw.push_back(session.get());
    ids.push_back(manager.add(std::move(session)));
  }
  for (TimeUs t = 0; t < 24; ++t) {
    for (size_t s = 0; s < ids.size(); ++s) {
      manager.submit(ids[s], event_at(t * 10 + static_cast<TimeUs>(s)));
      if (t % 6 == 5) manager.submit_advance(ids[s], t * 10 + 9);
    }
    if (t % 3 == 0) manager.pump();
  }
  manager.pump_all();
  std::vector<std::vector<TimeUs>> streams;
  for (auto* session : raw) streams.push_back(session->seen);
  return streams;
}

TEST(SchedRuntime, SetPlanRejectsMismatchedOrInvalidPlans) {
  SessionManager manager;
  manager.add(std::make_unique<RecordingSession>());
  manager.add(std::make_unique<RecordingSession>());

  // Valid plan for the wrong population size.
  try {
    manager.set_plan(sched::Plan::round_robin(3, 2, 2));
    FAIL() << "expected InvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
  }

  // Structurally broken plan.
  sched::Plan broken = sched::Plan::round_robin(2, 2, 2);
  broken.regions[0].sessions[0] = 5;
  EXPECT_THROW(manager.set_plan(broken), Error);
  EXPECT_FALSE(manager.has_plan());

  manager.set_plan(sched::Plan::round_robin(2, 2, 2));
  EXPECT_TRUE(manager.has_plan());
  EXPECT_FALSE(manager.plan_bytes().empty());
  manager.clear_plan();
  EXPECT_FALSE(manager.has_plan());
  EXPECT_TRUE(manager.plan_bytes().empty());
  EXPECT_THROW(manager.plan(), Error);
}

TEST(SchedRuntime, PlannedPumpPreservesEverySessionsFifoOrder) {
  SessionManager manager(/*burst=*/2);
  std::vector<RecordingSession*> raw;
  std::vector<SessionId> ids;
  // Install before any traffic: the whole run is plan-driven.
  for (Index s = 0; s < 4; ++s) {
    auto session = std::make_unique<RecordingSession>();
    raw.push_back(session.get());
    ids.push_back(manager.add(std::move(session)));
  }
  manager.set_plan(reversed_plan(4));
  for (TimeUs t = 0; t < 12; ++t) {
    for (size_t s = 0; s < ids.size(); ++s) {
      manager.submit(ids[s], event_at(t * 100 + static_cast<TimeUs>(s)));
    }
  }
  manager.pump_all();
  for (size_t s = 0; s < raw.size(); ++s) {
    ASSERT_EQ(raw[s]->seen.size(), 12u);
    for (TimeUs t = 0; t < 12; ++t) {
      EXPECT_EQ(raw[s]->seen[static_cast<size_t>(t)],
                t * 100 + static_cast<TimeUs>(s));
    }
  }
}

TEST(SchedRuntime, AnyPlanYieldsTheSameStreamsAsNoPlan) {
  std::vector<std::vector<TimeUs>> unplanned, planned;
  {
    SessionManager manager(/*burst=*/2);
    std::vector<RecordingSession*> raw;
    std::vector<SessionId> ids;
    unplanned = run_schedule(manager, raw, ids, 4);
  }
  {
    SessionManager manager(/*burst=*/2);
    std::vector<RecordingSession*> raw;
    std::vector<SessionId> ids;
    for (Index s = 0; s < 4; ++s) {
      auto session = std::make_unique<RecordingSession>();
      raw.push_back(session.get());
      ids.push_back(manager.add(std::move(session)));
    }
    manager.set_plan(reversed_plan(4));
    // Re-run the identical submit schedule against the planned manager.
    for (TimeUs t = 0; t < 24; ++t) {
      for (size_t s = 0; s < ids.size(); ++s) {
        manager.submit(ids[s], event_at(t * 10 + static_cast<TimeUs>(s)));
        if (t % 6 == 5) manager.submit_advance(ids[s], t * 10 + 9);
      }
      if (t % 3 == 0) manager.pump();
    }
    manager.pump_all();
    for (auto* session : raw) planned.push_back(session->seen);
  }
  EXPECT_EQ(planned, unplanned);
}

TEST(SchedRuntime, UnplannedPumpVisitsInRoundRobinOrder) {
  ScopedThreads threads(3);
  SessionManager manager(/*burst=*/2);
  VisitLog visits;
  for (Index s = 0; s < 5; ++s) {
    manager.add(std::make_unique<RecordingSession>(&visits));
  }
  submit_events(manager, 5);
  manager.pump_all();
  EXPECT_EQ(visits.sequences(),
            region_visits(sched::Plan::round_robin(5, 3, 2), 5));
  // Pumped by a shard worker, the round runs serially: one region.
  visits.clear();
  submit_events(manager, 5);
  pump_all_nested(manager);
  EXPECT_EQ(visits.sequences(),
            region_visits(sched::Plan::round_robin(5, 1, 2), 5));
  // The default plan is not an installed one.
  EXPECT_FALSE(manager.has_plan());
  EXPECT_TRUE(manager.plan_bytes().empty());
  EXPECT_THROW(manager.plan(), Error);
}

TEST(SchedRuntime, StalePlanFallsBackToRoundRobinOrder) {
  ScopedThreads threads(3);
  SessionManager manager(/*burst=*/2);
  VisitLog visits;
  for (Index s = 0; s < 4; ++s) {
    manager.add(std::make_unique<RecordingSession>(&visits));
  }
  const sched::Plan installed = reversed_plan(4);
  manager.set_plan(installed);
  // A fifth session makes the installed plan stale: it no longer covers
  // the population, so pump() runs the round-robin default instead.
  manager.add(std::make_unique<RecordingSession>(&visits));
  submit_events(manager, 5);
  manager.pump_all();
  EXPECT_EQ(visits.sequences(),
            region_visits(sched::Plan::round_robin(5, 3, 2), 5));
  // has_plan()/plan() keep reporting the installed plan, stale or not.
  ASSERT_TRUE(manager.has_plan());
  EXPECT_TRUE(manager.plan() == installed);
}

// add() makes the installed plan stale and the round falls back to the
// default plan. The new session is in that plan's scan like any other, so
// its queued ops are pumped, on the pool and from a shard worker alike.
TEST(SchedRuntime, SessionAddedUnderAStalePlanIsPumped) {
  ScopedThreads threads(3);
  SessionManager manager(/*burst=*/2);
  std::vector<RecordingSession*> raw;
  for (Index s = 0; s < 3; ++s) {
    auto session = std::make_unique<RecordingSession>();
    raw.push_back(session.get());
    manager.add(std::move(session));
  }
  manager.set_plan(reversed_plan(3));
  auto late = std::make_unique<RecordingSession>();
  RecordingSession& added = *late;
  const SessionId id = manager.add(std::move(late));
  for (TimeUs t = 0; t < 5; ++t) manager.submit(id, event_at(t * 10 + id));
  EXPECT_EQ(manager.queued(id), 5);
  manager.pump_all();
  EXPECT_EQ(manager.queued(id), 0);
  EXPECT_EQ(added.seen, (std::vector<TimeUs>{3, 13, 23, 33, 43}));
  for (TimeUs t = 5; t < 8; ++t) manager.submit(id, event_at(t * 10 + id));
  pump_all_nested(manager);
  EXPECT_EQ(added.seen.size(), 8u);
  for (const RecordingSession* session : raw) {
    EXPECT_TRUE(session->seen.empty());
  }
}

// The ready flags skip idle sessions and never reorder busy ones: under a
// plan whose visit order is neither id nor round-robin order, the sessions
// with work are served exactly as the plan visits them, round by round.
TEST(SchedRuntime, IdleSessionsLeaveThePlannedVisitOrderUnchanged) {
  ScopedThreads threads(2);
  SessionManager manager(/*burst=*/2);
  VisitLog visits;
  for (Index s = 0; s < 6; ++s) {
    manager.add(std::make_unique<RecordingSession>(&visits));
  }
  sched::Plan plan;
  plan.session_count = 6;
  plan.burst = 2;
  plan.regions.resize(2);
  plan.regions[0].sessions = {4, 1, 5};
  plan.regions[1].sessions = {3, 0, 2};
  manager.set_plan(plan);
  const std::vector<Index> ops = {3, 5, 0, 4, 1, 0};  // 2 and 5 stay idle
  submit_events(manager, ops);
  manager.pump_all();
  EXPECT_EQ(visits.sequences(), region_visits(plan, ops));
  // Sessions idle so far take their plan position once work arrives.
  visits.clear();
  const std::vector<Index> later = {0, 2, 3, 0, 0, 4};
  submit_events(manager, later);
  manager.pump_all();
  EXPECT_EQ(visits.sequences(), region_visits(plan, later));
}

TEST(SchedRuntime, DefaultPlanFollowsThePoolSize) {
  ScopedThreads threads(3);
  SessionManager manager(/*burst=*/1);
  VisitLog visits;
  for (Index s = 0; s < 4; ++s) {
    manager.add(std::make_unique<RecordingSession>(&visits));
  }
  submit_events(manager, 3);
  manager.pump_all();
  EXPECT_EQ(visits.sequences(),
            region_visits(sched::Plan::round_robin(4, 3, 1), 3));
  // A resized pool re-deals the same population over two regions.
  par::set_thread_count(2);
  visits.clear();
  submit_events(manager, 3);
  manager.pump_all();
  EXPECT_EQ(visits.sequences(),
            region_visits(sched::Plan::round_robin(4, 2, 1), 3));
}

TEST(SchedRuntime, PlanBytesRestoreIntoAFreshManager) {
  SessionManager source;
  source.add(std::make_unique<RecordingSession>());
  source.add(std::make_unique<RecordingSession>());
  sched::Plan plan = sched::Plan::round_robin(2, 1, 4);
  plan.regions[0].sessions = {1, 0};  // make it distinguishable
  source.set_plan(plan);

  // The checkpoint-framed bytes are the transport: a restored manager
  // resumes under the very same plan.
  const std::vector<std::uint8_t> bytes = source.plan_bytes();
  SessionManager restored;
  restored.add(std::make_unique<RecordingSession>());
  restored.add(std::make_unique<RecordingSession>());
  restored.install_plan_bytes(bytes);
  ASSERT_TRUE(restored.has_plan());
  EXPECT_TRUE(restored.plan() == plan);
  EXPECT_EQ(restored.plan().fingerprint(), plan.fingerprint());
  EXPECT_EQ(restored.plan_bytes(), bytes);

  // Bytes for the wrong population are refused at install time.
  SessionManager wrong_size;
  wrong_size.add(std::make_unique<RecordingSession>());
  EXPECT_THROW(wrong_size.install_plan_bytes(bytes), Error);
}

class SchedFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().reset(); }
  void TearDown() override {
    fault::Injector::instance().reset();
    fault::set_enabled(false);
  }
};

TEST_F(SchedFaultTest, QuarantineUnderAPlanLeavesNeighboursBitwiseUnchanged) {
  // Single region visiting all sessions: the faulted session shares
  // its worker with every neighbour, the worst case for blast radius.
  const auto run = [&](bool inject) {
    SessionManager manager(/*burst=*/2);
    std::vector<RecordingSession*> raw;
    std::vector<SessionId> ids;
    for (Index s = 0; s < 3; ++s) {
      auto session = std::make_unique<RecordingSession>();
      raw.push_back(session.get());
      ids.push_back(manager.add(std::move(session)));
    }
    manager.set_plan(reversed_plan(3));
    for (TimeUs t = 0; t < 10; ++t) {
      for (size_t s = 0; s < ids.size(); ++s) {
        manager.submit(ids[s], event_at(t * 10 + static_cast<TimeUs>(s)));
      }
    }
    if (inject) {
      fault::FaultPlan fp;
      fp.kind = fault::FaultKind::SessionThrow;
      fp.target = ids[1];
      fp.after = 3;
      fp.max_fires = 1;
      fault::ScopedInjection injection("runtime.pump.op_fault", fp);
      manager.pump_all();
      EXPECT_EQ(manager.state(ids[1]), SessionState::Faulted);
    } else {
      manager.pump_all();
    }
    std::vector<std::vector<TimeUs>> streams;
    for (size_t s = 0; s < raw.size(); ++s) {
      if (s != 1) streams.push_back(raw[s]->seen);
    }
    return streams;
  };
  const auto clean = run(false);
  const auto faulted = run(true);
  EXPECT_EQ(faulted, clean);  // neighbours 0 and 2, element-exact
}

TEST_F(SchedFaultTest, CheckpointRestoreReplaysUnderThePlannedPump) {
  const auto run = [&](bool inject) {
    SessionManager manager(/*burst=*/2);
    std::vector<CheckpointedRecordingSession*> raw;
    std::vector<SessionId> ids;
    ManagedSessionConfig config;
    config.checkpoint_every = 4;
    for (Index s = 0; s < 2; ++s) {
      auto session = std::make_unique<CheckpointedRecordingSession>();
      raw.push_back(session.get());
      ids.push_back(manager.add(std::move(session), config));
    }
    manager.set_plan(reversed_plan(2));
    for (TimeUs t = 0; t < 12; ++t) {
      for (size_t s = 0; s < ids.size(); ++s) {
        manager.submit(ids[s], event_at(t * 10 + static_cast<TimeUs>(s)));
      }
    }
    if (inject) {
      fault::FaultPlan fp;
      fp.kind = fault::FaultKind::SessionThrow;
      fp.target = ids[0];
      fp.after = 6;
      fp.max_fires = 1;
      fault::ScopedInjection injection("runtime.pump.op_fault", fp);
      manager.pump_all();
      // The session restores from its checkpoint, replays and retries —
      // mid-round, under the planned pump.
      EXPECT_EQ(manager.state(ids[0]), SessionState::Active);
      EXPECT_EQ(manager.stats().faults.restores, 1);
    } else {
      manager.pump_all();
    }
    EXPECT_TRUE(manager.has_plan());
    std::vector<std::vector<TimeUs>> streams;
    for (auto* session : raw) streams.push_back(session->seen);
    return streams;
  };
  const auto clean = run(false);
  const auto faulted = run(true);
  EXPECT_EQ(faulted, clean);  // recovery is invisible in the op streams
}

}  // namespace
}  // namespace evd::runtime
