// ShardManager: EVD_SHARDS resolution (shared parser discipline with
// EVD_THREADS), the shards == 1 legacy collapse, sharded-vs-sequential
// decision equality at the unit level (the real pipelines are covered by
// the shard.sharded_vs_sequential oracles), ingress accounting, and
// submit-concurrent-with-pump safety (a CI sanitizer target).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "runtime/session_base.hpp"
#include "shard/shard_manager.hpp"
#include "test_util.hpp"

namespace evd::shard {
namespace {

events::Event event_at(TimeUs t, std::int16_t x = 1) {
  events::Event e;
  e.x = x;
  e.y = 2;
  e.polarity = Polarity::On;
  e.t = t;
  return e;
}

/// Deterministic unit session: records event times, decides on advance,
/// checkpoints its full state (so it also serves the migration tests).
class RecordingSession final : public runtime::SessionBase {
 public:
  RecordingSession()
      : runtime::SessionBase(runtime::SessionBaseConfig{
            .decision_retain = 32, .paradigm = "unknown"}) {}

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

SessionFactory recording_factory() {
  return [] { return std::make_unique<RecordingSession>(); };
}

/// RAII environment override (tests run single-threaded at this level).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

TEST(ShardManager, ResolvesShardCountLikeEvdThreads) {
  {
    ScopedEnv env("EVD_SHARDS", nullptr);
    EXPECT_EQ(resolve_shard_count(0), 1);  // unset: sharding is opt-in
  }
  {
    ScopedEnv env("EVD_SHARDS", "4");
    EXPECT_EQ(resolve_shard_count(0), 4);
    EXPECT_EQ(resolve_shard_count(2), 2);  // explicit config wins
  }
  // The reject/warn/fallback discipline is shared with EVD_THREADS via
  // env_count: zero, negative and garbage all fall back; huge clamps.
  for (const char* bad : {"0", "-3", "abc", "4x", ""}) {
    ScopedEnv env("EVD_SHARDS", bad);
    EXPECT_EQ(resolve_shard_count(0), 1) << "value '" << bad << "'";
  }
  {
    ScopedEnv env("EVD_SHARDS", "9999");
    EXPECT_EQ(resolve_shard_count(0), kMaxShards);
  }
}

TEST(ShardManager, SingleShardIsTheLegacyDirectPath) {
  ShardManagerConfig cfg;
  cfg.shards = 1;
  ShardManager sharded(cfg);
  runtime::SessionManager direct;

  runtime::ManagedSessionConfig tiny;
  tiny.queue_capacity = 2;  // DropNewest: the third submit must be refused
  const auto id = sharded.add(recording_factory(), tiny);
  const auto ref = direct.add(std::make_unique<RecordingSession>(), tiny);

  // No ingress ring in front: submit reports the inner admission verdict
  // immediately, exactly like a bare SessionManager.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sharded.submit(id, event_at(i)),
              direct.submit(ref, event_at(i)))
        << i;
  }
  EXPECT_FALSE(sharded.submit(id, event_at(9)));
  EXPECT_FALSE(direct.submit(ref, event_at(9)));
  sharded.submit_advance(id, 100);
  direct.submit_advance(ref, 100);
  sharded.pump_all();
  direct.pump_all();

  EXPECT_EQ(test::drained(sharded.session(id)).size(),
            test::drained(direct.session(ref)).size());
  const ShardManager::Stats s = sharded.stats();
  EXPECT_EQ(s.shards, 1);
  EXPECT_EQ(s.ingress_ops, 0);  // no ring exists to count anything
  EXPECT_EQ(s.totals.events_fed, direct.stats().totals.events_fed);
  EXPECT_EQ(s.totals.events_dropped, direct.stats().totals.events_dropped);
}

TEST(ShardManager, ShardedDecisionStreamsMatchOneSequentialManager) {
  constexpr Index kSessions = 10;
  ShardManagerConfig cfg;
  cfg.shards = 4;
  ShardManager sharded(cfg);
  runtime::SessionManager sequential;

  std::vector<ShardManager::SessionId> ids;
  std::vector<runtime::SessionId> refs;
  for (Index s = 0; s < kSessions; ++s) {
    ids.push_back(sharded.add(recording_factory()));
    refs.push_back(sequential.add(std::make_unique<RecordingSession>()));
  }
  // Interleaved feeds + advances, pumped mid-stream at different cadences
  // on the two sides: per-session op order is all that may matter.
  for (TimeUs t = 0; t < 40; ++t) {
    for (Index s = 0; s < kSessions; ++s) {
      const TimeUs stamp = t * 50 + s;
      EXPECT_TRUE(sharded.submit(ids[static_cast<size_t>(s)],
                                 event_at(stamp)));
      sequential.submit(refs[static_cast<size_t>(s)], event_at(stamp));
      if (t % 5 == 4) {
        sharded.submit_advance(ids[static_cast<size_t>(s)], stamp + 1);
        sequential.submit_advance(refs[static_cast<size_t>(s)], stamp + 1);
      }
    }
    if (t % 3 == 0) sharded.pump();
    if (t % 7 == 0) sequential.pump();
  }
  sharded.pump_all();
  sequential.pump_all();

  for (Index s = 0; s < kSessions; ++s) {
    const auto got =
        test::drained(sharded.session(ids[static_cast<size_t>(s)]));
    const auto want =
        test::drained(sequential.session(refs[static_cast<size_t>(s)]));
    ASSERT_EQ(got.size(), want.size()) << "session " << s;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].t, want[i].t);
      EXPECT_EQ(got[i].label, want[i].label);
      EXPECT_EQ(got[i].confidence, want[i].confidence);
    }
  }
  // Placement actually spread the population (10 sessions, 4 shards).
  std::vector<bool> used(4, false);
  for (const auto id : ids) {
    used[static_cast<size_t>(sharded.shard_of(id))] = true;
    EXPECT_EQ(sharded.shard_of(id), sharded.planned_shard_of(id));
  }
  int populated = 0;
  for (const bool u : used) populated += u ? 1 : 0;
  EXPECT_GE(populated, 2);
}

TEST(ShardManager, IngressLedgersAccountAcceptsAndFullRingRejections) {
  ShardManagerConfig cfg;
  cfg.shards = 2;
  cfg.ingress_capacity = 4;  // rounds to 4: the 5th un-pumped op must drop
  ShardManager manager(cfg);
  const auto id = manager.add(recording_factory());

  int accepted = 0, rejected = 0;
  for (int i = 0; i < 9; ++i) {
    (manager.submit(id, event_at(i)) ? accepted : rejected)++;
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rejected, 5);
  ShardManager::Stats s = manager.stats();
  EXPECT_EQ(s.ingress_ops, 4);
  EXPECT_EQ(s.ingress_dropped, 5);
  // A ring rejection is a loss like any other: it lands in the totals.
  EXPECT_EQ(s.totals.events_dropped, 5);

  manager.pump_all();
  s = manager.stats();
  EXPECT_EQ(s.totals.events_fed, 4);
  EXPECT_EQ(s.queues.pushed, 4);  // drained ops entered the inner queue
}

// A round reports every op it moved: ring ops drained into the shards'
// queues plus queued ops applied, summed over the shards' workers.
TEST(ShardManager, PumpReturnsOpsDrainedPlusOpsProcessed) {
  const Index previous = par::thread_count();
  par::set_thread_count(4);
  ShardManagerConfig cfg;
  cfg.shards = 4;
  cfg.burst = 2;
  ShardManager manager(cfg);
  constexpr int kSessions = 8;
  constexpr int kOps = 5;
  std::vector<ShardManager::SessionId> ids;
  for (int s = 0; s < kSessions; ++s) {
    ids.push_back(manager.add(recording_factory()));
  }
  for (int i = 0; i < kOps; ++i) {
    for (const auto id : ids) ASSERT_TRUE(manager.submit(id, event_at(i)));
  }
  // Round 1 drains all 40 ring ops and applies 2 per session; rounds 2 and 3
  // apply the remaining 2 and 1 per session.
  EXPECT_EQ(manager.pump(), kSessions * kOps + kSessions * 2);
  EXPECT_EQ(manager.pump(), kSessions * 2);
  EXPECT_EQ(manager.pump(), kSessions * 1);
  EXPECT_EQ(manager.pump(), 0);
  EXPECT_EQ(manager.stats().totals.events_fed, kSessions * kOps);
  par::set_thread_count(previous);
}

// Each shard's queue losses land in its own labelled series, so a scrape
// can tell which shard is shedding; nothing folds into the unlabelled name.
TEST(ShardManager, QueueDropCounterIsLabelledPerShard) {
  ShardManagerConfig cfg;
  cfg.shards = 2;
  ShardManager manager(cfg);
  runtime::ManagedSessionConfig tight;
  tight.queue_capacity = 2;  // DropNewest: draining 5 ops sheds 3
  const auto id = manager.add(recording_factory(), tight);
  for (int i = 0; i < 5; ++i) manager.submit(id, event_at(i));
  manager.pump_all();

  obs::MetricsSnapshot snap;
  manager.export_metrics(snap);
  const auto dropped = [&](const std::string& label) {
    const std::int64_t* c = snap.counter("evd_queue_ops_dropped_total" + label);
    return c == nullptr ? std::int64_t{-1} : *c;
  };
  const Index home = manager.shard_of(id);
  EXPECT_EQ(dropped("{shard=\"" + std::to_string(home) + "\"}"), 3);
  EXPECT_EQ(dropped("{shard=\"" + std::to_string(1 - home) + "\"}"), 0);
  EXPECT_EQ(dropped(""), -1);  // absent
}

// With one shard the facade exports exactly what a bare SessionManager
// exports: the same unlabelled series, no shard series.
TEST(ShardManager, OneShardExportsWhatABareSessionManagerExports) {
  ShardManagerConfig cfg;
  cfg.shards = 1;
  ShardManager sharded(cfg);
  runtime::SessionManager bare;
  runtime::ManagedSessionConfig tight;
  tight.queue_capacity = 2;  // DropNewest: 3 of 5 ops dropped per session
  for (int s = 0; s < 3; ++s) {
    const auto id = sharded.add(recording_factory(), tight);
    const auto ref = bare.add(std::make_unique<RecordingSession>(), tight);
    for (int i = 0; i < 5; ++i) {
      sharded.submit(id, event_at(i));
      bare.submit(ref, event_at(i));
    }
    sharded.pump_all();
    bare.pump_all();
    sharded.submit_advance(id, 10);
    bare.submit_advance(ref, 10);
  }
  sharded.pump_all();
  bare.pump_all();
  obs::MetricsSnapshot got;
  obs::MetricsSnapshot want;
  sharded.export_metrics(got);
  bare.export_metrics(want);
  ASSERT_NE(want.counter("evd_queue_ops_dropped_total"), nullptr);
  EXPECT_EQ(*want.counter("evd_queue_ops_dropped_total"), 9);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.gauges, want.gauges);
  EXPECT_TRUE(got.histograms.empty());
}

TEST(ShardManager, InvalidIdsAndShardsAreTypedErrors) {
  ShardManagerConfig cfg;
  cfg.shards = 2;
  ShardManager manager(cfg);
  EXPECT_THROW((void)manager.stats(0), Error);
  const auto id = manager.add(recording_factory());
  EXPECT_THROW(manager.migrate(id, 7), Error);
  EXPECT_THROW(manager.migrate(id, -1), Error);
  try {
    (void)manager.state(42);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidSessionId);
  }
}

// Routing reads the placement table, which still bounds-checks every id: a
// bad id is a typed InvalidSessionId on every routed call, on the
// single-shard facade and with rings alike.
TEST(ShardManager, RoutedCallsRejectOutOfRangeIds) {
  for (const Index shards : {Index{1}, Index{2}}) {
    ShardManagerConfig cfg;
    cfg.shards = shards;
    ShardManager manager(cfg);
    const auto id = manager.add(recording_factory());
    const auto expect_invalid = [](const auto& call) {
      try {
        call();
        FAIL() << "expected InvalidSessionId";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidSessionId);
      }
    };
    for (const ShardManager::SessionId bad :
         {ShardManager::SessionId{-1}, id + 1,
          ShardManager::SessionId{1} << 40}) {
      std::vector<core::Decision> out;
      expect_invalid([&] { manager.submit(bad, event_at(1)); });
      expect_invalid([&] { manager.submit_advance(bad, 1); });
      expect_invalid([&] { (void)manager.queued(bad); });
      expect_invalid([&] { manager.drain(bad, out); });
      expect_invalid([&] { (void)manager.session(bad); });
      expect_invalid([&] { (void)manager.state(bad); });
      expect_invalid([&] { (void)manager.stats(bad); });
      expect_invalid([&] { (void)manager.shard_of(bad); });
      expect_invalid([&] { (void)manager.planned_shard_of(bad); });
      expect_invalid([&] { manager.migrate(bad, 0); });
    }
    EXPECT_EQ(manager.stats().ingress_ops, 0);
    EXPECT_TRUE(manager.submit(id, event_at(1)));
    manager.pump_all();
    EXPECT_EQ(manager.stats(id).events_fed, 1);
  }
}

// Producers on their own threads, the pump loop on this one, concurrently —
// the exact topology the MPSC ring exists for. Sanitizer CI (TSAN,
// ASan+UBSan) runs this suite; the assertion here is conservation: with
// retry-on-full producers, every op eventually lands and is fed.
TEST(ShardManager, SubmitIsSafeConcurrentlyWithPump) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1500;
  ShardManagerConfig cfg;
  cfg.shards = 2;
  cfg.ingress_capacity = 256;  // small: force full-ring retries under load
  ShardManager manager(cfg);
  std::vector<ShardManager::SessionId> ids;
  for (int s = 0; s < kProducers; ++s) {
    ids.push_back(manager.add(recording_factory()));
  }

  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &ids, &manager, &done] {
      const auto id = ids[static_cast<size_t>(p)];
      for (int i = 0; i < kPerProducer; ++i) {
        while (!manager.submit(id, event_at(i, static_cast<std::int16_t>(p)))) {
          std::this_thread::yield();
        }
      }
      done.fetch_add(1);
    });
  }
  while (done.load() < kProducers) manager.pump();
  for (auto& t : producers) t.join();
  manager.pump_all();

  const ShardManager::Stats s = manager.stats();
  EXPECT_EQ(s.totals.events_fed,
            static_cast<std::int64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(s.ingress_ops,
            static_cast<std::int64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(s.queues.dropped, 0);
  EXPECT_EQ(s.sessions, kProducers);
}

// obs::snapshot() reads the registry and never manager state, so a scraper
// thread may call it while pump workers record into the registry.
TEST(ObsSnapshot, ConcurrentWithShardedPumpIsRaceFree) {
  constexpr Index kSessions = 8;
  constexpr TimeUs kOps = 200;
  const Index previous = par::thread_count();
  par::set_thread_count(4);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  ShardManagerConfig cfg;
  cfg.shards = 4;
  ShardManager manager(cfg);
  std::vector<ShardManager::SessionId> ids;
  for (Index s = 0; s < kSessions; ++s) {
    ids.push_back(manager.add(recording_factory()));
  }
  std::atomic<bool> done{false};
  std::int64_t scrapes = 0;
  std::thread scraper([&] {
    do {
      const obs::MetricsSnapshot snap = obs::snapshot();
      scrapes += snap.counters.empty() ? 0 : 1;
    } while (!done.load(std::memory_order_acquire));
  });
  for (TimeUs t = 0; t < kOps; ++t) {
    for (const auto id : ids) {
      manager.submit(id, event_at(t));
      if (t % 10 == 9) manager.submit_advance(id, t + 1);
    }
    manager.pump();
  }
  manager.pump_all();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes, 0);
  EXPECT_EQ(manager.stats().totals.events_fed, kSessions * kOps);
  obs::set_enabled(was_enabled);
  par::set_thread_count(previous);
}

}  // namespace
}  // namespace evd::shard
