// Online re-planning (ISSUE satellite): the SessionManager keeps a
// windowed per-session backlog estimate, fingerprints its log2 buckets,
// and invokes the replan hook only when the workload mix actually drifts.
// A returned plan is installed through the normal set_plan gate (routes
// included); a stale plan for the wrong population is dropped.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "route/route.hpp"
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

class ParadigmSession final : public SessionBase {
 public:
  explicit ParadigmSession(const char* paradigm)
      : SessionBase(SessionBaseConfig{.decision_retain = 8192,
                                      .paradigm = paradigm}) {}

 private:
  void on_event(const events::Event&) override {}
  void on_advance(TimeUs t) override {
    core::Decision d;
    d.t = t;
    emit(d);
  }
};

/// Two sessions, burst 1, hook window 2. Each call to `round` tops the
/// queues back up before pumping, so the backlog the estimator sees stays
/// wherever the test parks it.
struct ReplanRig {
  SessionManager manager{/*burst=*/1};
  std::vector<SessionId> ids;
  TimeUs now = 0;

  ReplanRig() {
    ids.push_back(manager.add(std::make_unique<ParadigmSession>("cnn")));
    ids.push_back(manager.add(std::make_unique<ParadigmSession>("cnn")));
  }

  /// Refill each session's queue to `backlog` events, then pump once.
  void round(Index backlog0, Index backlog1) {
    const Index want[2] = {backlog0, backlog1};
    for (size_t s = 0; s < ids.size(); ++s) {
      for (Index i = manager.queued(ids[s]); i < want[s]; ++i) {
        manager.submit(ids[s], event_at(++now));
      }
    }
    manager.pump();
  }
};

TEST(Replan, HookFiresOnMixDriftNotOnSteadyState) {
  ReplanRig rig;
  Index calls = 0;
  std::vector<Index> last_backlog;
  std::vector<double> last_activity;
  rig.manager.set_replan(
      [&](std::span<const Index> backlog,
          std::span<const double> activity) -> std::optional<sched::Plan> {
        last_activity.assign(activity.begin(), activity.end());
        ++calls;
        last_backlog.assign(backlog.begin(), backlog.end());
        return std::nullopt;
      },
      /*window=*/2);
  EXPECT_EQ(rig.manager.workload_fingerprint(), 0u);

  // First completed window: fingerprint moves off its empty-history zero,
  // so the hook sees the initial mix once.
  rig.round(4, 4);
  EXPECT_EQ(calls, 0);  // mid-window: still accumulating
  rig.round(4, 4);
  EXPECT_EQ(calls, 1);
  EXPECT_NE(rig.manager.workload_fingerprint(), 0u);
  const std::uint64_t steady_fp = rig.manager.workload_fingerprint();
  ASSERT_EQ(last_backlog.size(), 2u);

  // Steady mix: same buckets, same fingerprint, no re-plan.
  for (int w = 0; w < 3; ++w) {
    rig.round(4, 4);
    rig.round(4, 4);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(rig.manager.workload_fingerprint(), steady_fp);
  // ParadigmSession configures no sensor geometry, so the estimator is off
  // and the hook sees the fully-dense default for both sessions.
  ASSERT_EQ(last_activity.size(), 2u);
  EXPECT_EQ(last_activity[0], 1.0);
  EXPECT_EQ(last_activity[1], 1.0);

  // Session 0's backlog jumps two powers of two: that is a mix drift.
  rig.round(40, 4);
  rig.round(40, 4);
  EXPECT_EQ(calls, 2);
  EXPECT_NE(rig.manager.workload_fingerprint(), steady_fp);
  EXPECT_GT(last_backlog[0], last_backlog[1]);
}

TEST(Replan, ReturnedPlanIsInstalledWithItsRoutes) {
  ReplanRig rig;
  rig.manager.set_replan(
      [&](std::span<const Index>,
          std::span<const double>) -> std::optional<sched::Plan> {
        sched::Plan plan = sched::Plan::round_robin(2, 1, 3);
        sched::ParadigmPlacement cnn;
        cnn.paradigm = "cnn";
        cnn.path = route::PathId::CnnSparse;
        plan.placements = {cnn};
        plan.refresh_labels();
        return plan;
      },
      /*window=*/2);
  EXPECT_FALSE(rig.manager.has_plan());
  rig.round(4, 4);
  rig.round(4, 4);
  ASSERT_TRUE(rig.manager.has_plan());
  EXPECT_EQ(rig.manager.plan().placements.size(), 1u);
  // set_plan applied the placement's route to both cnn sessions.
  for (const auto id : rig.ids) {
    EXPECT_EQ(rig.manager.session(id).execution_path(),
              route::PathId::CnnSparse);
  }
}

TEST(Replan, StalePlanForTheWrongPopulationIsDropped) {
  ReplanRig rig;
  Index calls = 0;
  rig.manager.set_replan(
      [&](std::span<const Index>,
          std::span<const double>) -> std::optional<sched::Plan> {
        ++calls;
        return sched::Plan::round_robin(5, 2, 2);  // population changed
      },
      /*window=*/2);
  rig.round(4, 4);
  rig.round(4, 4);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(rig.manager.has_plan());  // dropped, not thrown
}

/// A session with the windowed activity estimator armed (8x8 plane, 1 ms
/// windows) — the unit stand-in for a pipeline session whose stream turns
/// dense.
class ActivitySession final : public SessionBase {
 public:
  ActivitySession() : SessionBase(activity_config()) {}

 private:
  static SessionBaseConfig activity_config() {
    SessionBaseConfig cfg{.decision_retain = 8192, .paradigm = "cnn"};
    cfg.width = 8;
    cfg.height = 8;
    cfg.activity_window_us = 1000;
    return cfg;
  }
  void on_event(const events::Event&) override {}
  void on_advance(TimeUs) override {}
};

// The activity satellite end to end: a sparse-then-dense switching stream
// drifts the windowed activity estimate, the estimate drifts the workload
// fingerprint (even at steady backlog), the hook re-fires with the live
// activity, and the plan it returns routes the session off the sparse path.
TEST(Replan, ActivityDriftReroutesOffTheSparsePath) {
  SessionManager manager;  // default burst: each pump drains the round
  const SessionId id = manager.add(std::make_unique<ActivitySession>());
  std::vector<double> last_activity;
  manager.set_replan(
      [&](std::span<const Index>,
          std::span<const double> activity) -> std::optional<sched::Plan> {
        last_activity.assign(activity.begin(), activity.end());
        sched::Plan plan = sched::Plan::round_robin(1, 1, 3);
        if (activity[0] < 0.5) {
          // The sparse-conv pricing still holds: keep the sparse path.
          sched::ParadigmPlacement cnn;
          cnn.paradigm = "cnn";
          cnn.path = route::PathId::CnnSparse;
          plan.placements = {cnn};
        }
        // No placement when dense: set_plan falls the session back to
        // Default — dense frames stopped paying for sparse gather.
        plan.refresh_labels();
        return plan;
      },
      /*window=*/2);

  TimeUs now = 0;
  // Sparse phase: 10 events per 1 ms window, all inside one 2x2 corner —
  // occupancy 4/64, EWMA sinks below 0.5 after two window closes.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 10; ++i) {
      events::Event e;
      e.x = static_cast<std::int16_t>(i % 2);
      e.y = static_cast<std::int16_t>((i / 2) % 2);
      e.polarity = Polarity::On;
      e.t = now += 100;
      manager.submit(id, e);
    }
    manager.pump();
  }
  manager.pump_all();
  EXPECT_LT(manager.session(id).activity_estimate(), 0.2);
  ASSERT_EQ(last_activity.size(), 1u);
  EXPECT_LT(last_activity[0], 0.5);
  EXPECT_EQ(manager.session(id).execution_path(), route::PathId::CnnSparse);

  // Dense phase: the same event rate in time but sweeping the full plane —
  // 100 events per window touch all 64 pixels, EWMA climbs past 0.5.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 100; ++i) {
      events::Event e;
      e.x = static_cast<std::int16_t>(i % 8);
      e.y = static_cast<std::int16_t>((i / 8) % 8);
      e.polarity = Polarity::On;
      e.t = now += 10;
      manager.submit(id, e);
    }
    manager.pump();
  }
  manager.pump_all();
  EXPECT_GT(manager.session(id).activity_estimate(), 0.8);
  EXPECT_GT(last_activity[0], 0.5);
  EXPECT_EQ(manager.session(id).execution_path(), route::PathId::Default);
}

TEST(Replan, NullHookKeepsThePumpUntouched) {
  ReplanRig rig;
  rig.round(4, 4);
  rig.round(4, 4);
  EXPECT_EQ(rig.manager.workload_fingerprint(), 0u);
  EXPECT_FALSE(rig.manager.has_plan());
}

}  // namespace
}  // namespace evd::runtime
