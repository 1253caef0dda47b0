// Admission control: stream-time token buckets, the overload ladder, the
// noise gate, and the SessionManager wiring that accounts every shed.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "fault/admission.hpp"
#include "runtime/session_manager.hpp"

namespace evd::fault {
namespace {

events::Event event_at(TimeUs t, Index x = 8, Index y = 8) {
  events::Event e;
  e.x = static_cast<std::int16_t>(x);
  e.y = static_cast<std::int16_t>(y);
  e.polarity = Polarity::On;
  e.t = t;
  return e;
}

TEST(TokenBucket, DisabledBucketAdmitsEverything) {
  TokenBucket bucket;
  bucket.configure(0.0, 1.0);
  for (TimeUs t = 0; t < 100; ++t) EXPECT_TRUE(bucket.take(t));
}

TEST(TokenBucket, RefillsFromStreamTimeNotOpCount) {
  TokenBucket bucket;
  // 1000 events/s of stream time = 1 token per 1000 us, burst of 2.
  bucket.configure(1000.0, 2.0);
  EXPECT_TRUE(bucket.take(0));
  EXPECT_TRUE(bucket.take(0));
  EXPECT_FALSE(bucket.take(0));    // burst exhausted, no time elapsed
  EXPECT_FALSE(bucket.take(500));  // 0.5 tokens earned: still short
  EXPECT_TRUE(bucket.take(1000));  // now a full token is banked
  EXPECT_FALSE(bucket.take(1000));
}

TEST(TokenBucket, StalledAndRegressingStreamsEarnNothing) {
  TokenBucket bucket;
  bucket.configure(1000.0, 1.0);
  EXPECT_TRUE(bucket.take(5000));
  // Same timestamp and time regressions must not mint tokens.
  EXPECT_FALSE(bucket.take(5000));
  EXPECT_FALSE(bucket.take(4000));
  EXPECT_FALSE(bucket.take(0));
  EXPECT_TRUE(bucket.take(6000));
}

TEST(TokenBucket, BurstCapsTheBank) {
  TokenBucket bucket;
  bucket.configure(1000.0, 3.0);
  EXPECT_TRUE(bucket.take(0));  // primes at t=0, leaves 2 tokens
  // A huge gap earns at most `burst` tokens, not the full elapsed credit.
  EXPECT_TRUE(bucket.take(10'000'000));
  EXPECT_TRUE(bucket.take(10'000'000));
  EXPECT_TRUE(bucket.take(10'000'000));
  EXPECT_FALSE(bucket.take(10'000'000));
}

// Timestamps are untrusted: a gap spanning the whole TimeUs range must
// neither overflow nor read as a short one.
TEST(TokenBucket, RefillsToTheBurstAcrossTheWholeTimeRange) {
  TokenBucket bucket;
  bucket.configure(1000.0, 4.0);
  EXPECT_TRUE(bucket.take(std::numeric_limits<TimeUs>::min() + 1));
  EXPECT_TRUE(bucket.take(std::numeric_limits<TimeUs>::max()));
  EXPECT_EQ(bucket.tokens(), 3.0);  // refilled to 4, then one taken
}

TEST(DegradationLadder, RungsEngageAtTheirThresholds) {
  AdmissionConfig config;
  config.enabled = true;
  EXPECT_EQ(degradation_level(config, 0.0), DegradationLevel::Nominal);
  EXPECT_EQ(degradation_level(config, 0.49), DegradationLevel::Nominal);
  EXPECT_EQ(degradation_level(config, 0.50), DegradationLevel::ShedSampling);
  EXPECT_EQ(degradation_level(config, 0.70), DegradationLevel::CoarsenBursts);
  EXPECT_EQ(degradation_level(config, 0.85), DegradationLevel::DropNoise);
  EXPECT_EQ(degradation_level(config, 0.95), DegradationLevel::RejectAdmits);
  EXPECT_EQ(degradation_level(config, 1.0), DegradationLevel::RejectAdmits);
}

TEST(DegradationLadder, DisabledConfigNeverLeavesNominal) {
  AdmissionConfig config;  // enabled = false
  EXPECT_EQ(degradation_level(config, 1.0), DegradationLevel::Nominal);
}

TEST(DegradationLadder, EveryRungHasAName) {
  for (auto level :
       {DegradationLevel::Nominal, DegradationLevel::ShedSampling,
        DegradationLevel::CoarsenBursts, DegradationLevel::DropNoise,
        DegradationLevel::RejectAdmits}) {
    EXPECT_NE(degradation_level_name(level), nullptr);
    EXPECT_GT(std::string(degradation_level_name(level)).size(), 0u);
  }
}

TEST(NoiseGate, IsolatedEventsAreNoiseClusteredOnesAreSupported) {
  NoiseGate gate;
  constexpr TimeUs kWindow = 5000;
  // First event anywhere: cold table, no support.
  EXPECT_FALSE(gate.observe(event_at(1000, 8, 8), kWindow));
  // Same cell shortly after: supported.
  EXPECT_TRUE(gate.observe(event_at(2000, 9, 9), kWindow));
  // 4-adjacent coarse cell (x 12..15 is cell 3, adjacent to cell 2): supported.
  EXPECT_TRUE(gate.observe(event_at(3000, 13, 8), kWindow));
  // Far-away pixel: its cells are cold.
  EXPECT_FALSE(gate.observe(event_at(3000, 200, 200), kWindow));
  // Same cell but past the window: stale activity is no support.
  EXPECT_FALSE(gate.observe(event_at(20000, 8, 8), kWindow));
}

TEST(NoiseGate, AGapAcrossTheWholeTimeRangeIsNoSupport) {
  NoiseGate gate;
  EXPECT_FALSE(gate.observe(event_at(std::numeric_limits<TimeUs>::min() + 1),
                            5000));
  // About 2^64 us later, same cell: far outside the window.
  EXPECT_FALSE(gate.observe(event_at(std::numeric_limits<TimeUs>::max()),
                            5000));
}

// ---- SessionManager wiring ------------------------------------------------

class CountingSession final : public runtime::SessionBase {
 public:
  CountingSession()
      : runtime::SessionBase(runtime::SessionBaseConfig{
            .decision_retain = 64, .paradigm = "test"}) {}

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

TEST(AdmissionWiring, RateLimitShedsFeedsButNeverAdvances) {
  runtime::SessionManager manager;
  runtime::ManagedSessionConfig config;
  config.rate_limit_eps = 1000.0;  // 1 token / 1000 us of stream time
  config.rate_limit_burst = 1.0;
  auto session = std::make_unique<CountingSession>();
  auto* raw = session.get();
  const runtime::SessionId id = manager.add(std::move(session), config);

  EXPECT_TRUE(manager.submit(id, event_at(0)));
  EXPECT_FALSE(manager.submit(id, event_at(100)));  // bucket empty
  EXPECT_TRUE(manager.submit_advance(id, 200));     // advances are exempt
  EXPECT_FALSE(manager.submit(id, event_at(300)));
  EXPECT_TRUE(manager.submit(id, event_at(1500)));  // refilled by stream time
  manager.pump_all();

  ASSERT_EQ(raw->seen.size(), 2u);
  EXPECT_EQ(raw->seen[0], 0);
  EXPECT_EQ(raw->seen[1], 1500);
  const runtime::SessionManager::AggregateStats agg = manager.stats();
  EXPECT_EQ(agg.shedding.rate_limited, 2);
  // Rate-limit sheds are folded into the session's loss ledger too.
  EXPECT_EQ(manager.stats(id).events_dropped, 2);
}

TEST(AdmissionWiring, OccupancyTracksAggregateBacklog) {
  runtime::SessionManager manager;
  runtime::ManagedSessionConfig config;
  config.queue_capacity = 10;
  const runtime::SessionId a =
      manager.add(std::make_unique<CountingSession>(), config);
  const runtime::SessionId b =
      manager.add(std::make_unique<CountingSession>(), config);
  EXPECT_DOUBLE_EQ(manager.occupancy(), 0.0);
  for (TimeUs t = 0; t < 5; ++t) {
    manager.submit(a, event_at(t));
    manager.submit(b, event_at(t));
  }
  EXPECT_DOUBLE_EQ(manager.occupancy(), 0.5);  // 10 queued / 20 capacity
  manager.pump_all();
  EXPECT_DOUBLE_EQ(manager.occupancy(), 0.0);
}

TEST(AdmissionWiring, RejectAdmitsShedsFeedsAndNewSessions) {
  runtime::SessionManager manager;
  runtime::ManagedSessionConfig config;
  config.queue_capacity = 10;
  auto session = std::make_unique<CountingSession>();
  auto* raw = session.get();
  const runtime::SessionId id = manager.add(std::move(session), config);

  AdmissionConfig admission;
  admission.enabled = true;
  admission.reject_at = 0.80;
  manager.set_admission(admission);

  // Fill to the reject threshold: 8/10 occupancy, slots left so the ops
  // below are refused (or not) by the ladder alone, never the queue.
  for (TimeUs t = 0; t < 8; ++t) {
    ASSERT_TRUE(manager.submit(id, event_at(t)));
  }
  EXPECT_EQ(manager.admission_level(), DegradationLevel::RejectAdmits);
  EXPECT_FALSE(manager.submit(id, event_at(100)));   // feed rejected
  EXPECT_TRUE(manager.submit_advance(id, 101));      // progress continues
  EXPECT_THROW(manager.add(std::make_unique<CountingSession>()), Error);
  EXPECT_GE(manager.stats().shedding.rejected_overload, 1);

  manager.pump_all();
  EXPECT_EQ(manager.admission_level(), DegradationLevel::Nominal);
  EXPECT_EQ(raw->seen.size(), 8u);
  // Recovered: both feeds and admits flow again.
  EXPECT_TRUE(manager.submit(id, event_at(200)));
  const runtime::SessionId fresh =
      manager.add(std::make_unique<CountingSession>());
  EXPECT_EQ(manager.state(fresh), runtime::SessionState::Active);
}

TEST(AdmissionWiring, DropNoiseShedsOnlyUnsupportedLowPriorityFeeds) {
  runtime::SessionManager manager;
  runtime::ManagedSessionConfig low;
  low.queue_capacity = 100;
  low.priority = 0;
  runtime::ManagedSessionConfig high = low;
  high.priority = 1;
  auto lo_session = std::make_unique<CountingSession>();
  auto hi_session = std::make_unique<CountingSession>();
  auto* lo_raw = lo_session.get();
  auto* hi_raw = hi_session.get();
  const runtime::SessionId lo = manager.add(std::move(lo_session), low);
  const runtime::SessionId hi = manager.add(std::move(hi_session), high);

  AdmissionConfig admission;
  admission.enabled = true;
  admission.drop_noise_at = 0.10;  // engage the rung almost immediately
  admission.reject_at = 2.0;       // keep RejectAdmits out of the way
  manager.set_admission(admission);

  // Warm both gates below the rung, then push occupancy over it.
  ASSERT_TRUE(manager.submit(lo, event_at(0, 8, 8)));
  ASSERT_TRUE(manager.submit(hi, event_at(0, 8, 8)));
  for (TimeUs t = 1; t <= 20; ++t) {
    manager.submit(lo, event_at(t, 8, 8));  // clustered: supported
    manager.submit(hi, event_at(t, 8, 8));
  }
  ASSERT_EQ(manager.admission_level(), DegradationLevel::DropNoise);
  // An isolated far-away event on the low-priority session is shed; the
  // same event on the high-priority session is admitted.
  EXPECT_FALSE(manager.submit(lo, event_at(30, 200, 200)));
  EXPECT_TRUE(manager.submit(hi, event_at(30, 200, 200)));
  // Supported events still flow on the low-priority session.
  EXPECT_TRUE(manager.submit(lo, event_at(31, 8, 8)));
  EXPECT_EQ(manager.stats().shedding.shed_noise, 1);

  manager.pump_all();
  EXPECT_EQ(lo_raw->seen.size(), 22u);
  EXPECT_EQ(hi_raw->seen.size(), 22u);
}

TEST(AdmissionWiring, GateKeepsItsActivityAcrossADisable) {
  runtime::SessionManager manager;
  runtime::ManagedSessionConfig config;
  config.queue_capacity = 100;
  const runtime::SessionId id =
      manager.add(std::make_unique<CountingSession>(), config);

  AdmissionConfig admission;
  admission.enabled = true;
  admission.drop_noise_at = 0.10;
  admission.reject_at = 2.0;
  manager.set_admission(admission);
  // Activity at (8,8), seen while enabled; then a disable and re-enable.
  ASSERT_TRUE(manager.submit(id, event_at(0, 8, 8)));
  manager.pump_all();
  manager.set_admission(AdmissionConfig{});
  manager.set_admission(admission);

  // Push occupancy past the rung with a cluster far from (8,8).
  for (TimeUs t = 1; t <= 20; ++t) manager.submit(id, event_at(t, 200, 200));
  ASSERT_EQ(manager.admission_level(), DegradationLevel::DropNoise);
  // A feed next to the pre-cycle activity is still supported ...
  EXPECT_TRUE(manager.submit(id, event_at(30, 9, 9)));
  // ... while one with no activity near it is shed.
  EXPECT_FALSE(manager.submit(id, event_at(31, 120, 120)));
  EXPECT_EQ(manager.stats().shedding.shed_noise, 1);
}

TEST(AdmissionWiring, SessionAddedUnderAdmissionClassifiesFromItsFirstFeed) {
  runtime::SessionManager manager;
  AdmissionConfig admission;
  admission.enabled = true;
  admission.drop_noise_at = 0.10;
  admission.reject_at = 2.0;
  manager.set_admission(admission);

  runtime::ManagedSessionConfig low;
  low.queue_capacity = 100;
  low.priority = 0;
  runtime::ManagedSessionConfig high = low;
  high.priority = 1;
  const runtime::SessionId late =
      manager.add(std::make_unique<CountingSession>(), low);
  const runtime::SessionId filler =
      manager.add(std::make_unique<CountingSession>(), high);

  // The late session's first feed, below the rung, warms its gate.
  ASSERT_TRUE(manager.submit(late, event_at(0, 8, 8)));
  for (TimeUs t = 1; t <= 30; ++t) {
    manager.submit(filler, event_at(t, 200, 200));
  }
  ASSERT_EQ(manager.admission_level(), DegradationLevel::DropNoise);
  EXPECT_TRUE(manager.submit(late, event_at(40, 9, 9)));
  EXPECT_FALSE(manager.submit(late, event_at(41, 120, 120)));
  EXPECT_EQ(manager.stats().shedding.shed_noise, 1);
}

TEST(AdmissionWiring, CoarsenedRoundsAreCountedAndDrainFaster) {
  runtime::SessionManager manager(/*burst=*/2);
  runtime::ManagedSessionConfig config;
  config.queue_capacity = 100;
  auto session = std::make_unique<CountingSession>();
  auto* raw = session.get();
  const runtime::SessionId id = manager.add(std::move(session), config);

  AdmissionConfig admission;
  admission.enabled = true;
  admission.coarsen_at = 0.10;
  admission.drop_noise_at = 2.0;  // stay on the CoarsenBursts rung
  admission.reject_at = 2.0;
  admission.coarsen_factor = 8;
  manager.set_admission(admission);

  for (TimeUs t = 0; t < 16; ++t) manager.submit(id, event_at(t));
  ASSERT_EQ(manager.admission_level(), DegradationLevel::CoarsenBursts);
  // One coarsened round serves burst * factor = 16 ops instead of 2.
  EXPECT_EQ(manager.pump(), 16);
  EXPECT_EQ(raw->seen.size(), 16u);
  EXPECT_EQ(manager.stats().shedding.coarsened_rounds, 1);
}

}  // namespace
}  // namespace evd::fault
