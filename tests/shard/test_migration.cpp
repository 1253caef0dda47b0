// Checkpoint-driven rebalance: migration preserves decision streams and
// session state bitwise, conserves every ledger exactly (losses included),
// refuses quarantined sessions with the typed error, and rebalance()
// restores hash-ring placement for the Active population only.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
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

/// Throws on the poisoned x coordinate — the quarantine trigger.
class FaultableSession final : public runtime::SessionBase {
 public:
  FaultableSession()
      : runtime::SessionBase(runtime::SessionBaseConfig{
            .decision_retain = 32, .paradigm = "unknown"}) {}

 private:
  void on_event(const events::Event& event) override {
    if (event.x == 13) throw std::runtime_error("poisoned event");
  }
  void on_advance(TimeUs) override {}
};

ShardManager two_shards() {
  ShardManagerConfig cfg;
  cfg.shards = 2;
  return ShardManager(cfg);
}

TEST(ShardMigration, PreservesStateAndDecisionStreamAcrossTheMove) {
  ShardManager sharded = two_shards();
  runtime::SessionManager reference;
  const auto id = sharded.add([] { return std::make_unique<RecordingSession>(); });
  const auto ref = reference.add(std::make_unique<RecordingSession>());

  for (TimeUs t = 0; t < 20; ++t) {
    sharded.submit(id, event_at(t * 10));
    reference.submit(ref, event_at(t * 10));
  }
  sharded.submit_advance(id, 500);
  reference.submit_advance(ref, 500);
  sharded.pump();  // partially applied: migration must flush the rest

  const Index from = sharded.shard_of(id);
  const Index to = 1 - from;
  sharded.migrate(id, to);
  EXPECT_EQ(sharded.shard_of(id), to);
  EXPECT_EQ(sharded.migrations(), 1);

  // The session keeps serving at the target; the combined stream must be
  // exactly the never-migrated stream.
  for (TimeUs t = 20; t < 30; ++t) {
    sharded.submit(id, event_at(t * 10));
    reference.submit(ref, event_at(t * 10));
  }
  sharded.submit_advance(id, 1000);
  reference.submit_advance(ref, 1000);
  sharded.pump_all();
  reference.pump_all();

  const auto got = test::drained(sharded.session(id));
  const auto want = test::drained(reference.session(ref));
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t, want[i].t);
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].confidence, want[i].confidence);
  }
  EXPECT_EQ(sharded.stats(id).events_fed, reference.stats(ref).events_fed);
}

// After a migration every op reaches the session on its new shard. An op
// submitted between the source flush and the placement switch (here by the
// factory that rebuilds the session) is a straggler on the old shard's
// ring: the next drain there forwards it, and the new shard pumps it.
TEST(ShardMigration, OpsFollowTheSessionIncludingAStragglerOnTheOldRing) {
  ShardManager sharded = two_shards();
  ShardManager::SessionId id = 0;
  bool straggle = false;
  id = sharded.add([&] {
    if (straggle) {
      straggle = false;
      EXPECT_TRUE(sharded.submit(id, event_at(500)));
    }
    return std::make_unique<RecordingSession>();
  });
  for (TimeUs t = 0; t < 4; ++t) sharded.submit(id, event_at(t * 10));
  sharded.pump();

  const Index to = 1 - sharded.shard_of(id);
  straggle = true;
  sharded.migrate(id, to);
  ASSERT_FALSE(straggle);
  EXPECT_EQ(sharded.shard_of(id), to);
  EXPECT_EQ(sharded.queued(id), 0);  // the straggler is still on a ring
  sharded.pump_all();
  const auto& session =
      static_cast<const RecordingSession&>(sharded.session(id));
  EXPECT_EQ(session.seen, (std::vector<TimeUs>{0, 10, 20, 30, 500}));
  EXPECT_TRUE(sharded.submit(id, event_at(600)));
  sharded.pump_all();
  EXPECT_EQ(session.seen.back(), 600);
  EXPECT_EQ(sharded.shard(to).stats().totals.events_fed, 6);
  const ShardManager::Stats stats = sharded.stats();
  EXPECT_EQ(stats.ingress_ops, 6);
  EXPECT_EQ(stats.ingress_dropped, 0);
  EXPECT_EQ(stats.totals.events_fed, 6);
}

TEST(ShardMigration, MigrationKeepsTheMonotoneGuardWatermark) {
  ShardManager sharded = two_shards();
  runtime::ManagedSessionConfig cfg;
  cfg.validate_monotone_time = true;
  const auto id =
      sharded.add([] { return std::make_unique<RecordingSession>(); }, cfg);
  sharded.submit(id, event_at(1000));
  sharded.pump_all();

  sharded.migrate(id, 1 - sharded.shard_of(id));
  // A regressing event after the move must still trip the guard: the
  // watermark was seeded at the target, not reset to "never fed".
  sharded.submit(id, event_at(10));
  sharded.pump_all();
  EXPECT_EQ(sharded.state(id), runtime::SessionState::Faulted);
}

// The ledger-exact loss accounting property: drive real losses (inner
// queue overflow + ring overflow), then migrate and compare the whole
// aggregate ledger. A migration may not change any total — including a
// field added to the ledger later.
TEST(ShardMigration, ConservesEveryAggregateLedgerExactly) {
  using Ledger = runtime::SessionManager::AggregateStats;
  ShardManagerConfig mcfg;
  mcfg.shards = 2;
  mcfg.ingress_capacity = 16;  // 20 un-pumped submits: 4 ring rejections
  ShardManager sharded{mcfg};
  runtime::ManagedSessionConfig cfg;
  cfg.queue_capacity = 8;  // DropNewest: the 16-op drain sheds 8 more
  const auto id =
      sharded.add([] { return std::make_unique<RecordingSession>(); }, cfg);

  for (TimeUs t = 0; t < 20; ++t) sharded.submit(id, event_at(t));
  sharded.pump_all();
  const ShardManager::Stats before = sharded.stats();
  // Both loss sites really fired: this test is about *conserving* non-zero
  // ledgers, not comparing zeros.
  EXPECT_EQ(before.ingress_dropped, 4);
  EXPECT_EQ(before.queues.dropped, 8);
  EXPECT_EQ(before.totals.events_fed, 8);
  EXPECT_EQ(before.totals.events_dropped, 12);

  const Index from = sharded.shard_of(id);
  sharded.migrate(id, 1 - from);
  const ShardManager::Stats after = sharded.stats();
  EXPECT_EQ(static_cast<const Ledger&>(after),
            static_cast<const Ledger&>(before));
  EXPECT_EQ(after.ingress_ops, before.ingress_ops);
  EXPECT_EQ(after.ingress_dropped, before.ingress_dropped);
  EXPECT_EQ(after.migrations, before.migrations + 1);

  // The move shows in each shard's exported active-session gauge: the
  // tombstone left behind no longer counts.
  obs::MetricsSnapshot snap;
  sharded.export_metrics(snap);
  const auto active = [&](Index s) {
    const double* g = snap.gauge("evd_sessions_active{shard=\"" +
                                 std::to_string(s) + "\"}");
    return g == nullptr ? -1.0 : *g;
  };
  EXPECT_EQ(active(from), 0.0);
  EXPECT_EQ(active(1 - from), 1.0);

  // And the ledgers survive a *second* hop (retired ledgers accumulate,
  // not overwrite).
  sharded.migrate(id, from);
  const ShardManager::Stats again = sharded.stats();
  EXPECT_EQ(static_cast<const Ledger&>(again),
            static_cast<const Ledger&>(before));
}

// Exported counters are totals a scrape takes rates of. A migration moves
// the session's slot ledger into its source shard's retired ledger and its
// session counters into the target, so no series changes, let alone drops.
TEST(ShardMigration, NoExportedCounterDecreasesAcrossMigrations) {
  ShardManagerConfig mcfg;
  mcfg.shards = 2;
  mcfg.ingress_capacity = 16;  // 20 un-pumped submits: 4 ring rejections
  ShardManager sharded{mcfg};
  runtime::ManagedSessionConfig cfg;
  cfg.queue_capacity = 8;  // DropNewest: the 16-op drain sheds 8 more
  const auto id =
      sharded.add([] { return std::make_unique<RecordingSession>(); }, cfg);
  const auto other =
      sharded.add([] { return std::make_unique<RecordingSession>(); }, cfg);
  for (TimeUs t = 0; t < 20; ++t) sharded.submit(id, event_at(t));
  sharded.pump_all();
  for (TimeUs t = 0; t < 4; ++t) {
    sharded.submit_advance(id, 100 + t);
    sharded.submit_advance(other, 100 + t);
  }
  sharded.pump_all();
  const auto exported = [&] {
    obs::MetricsSnapshot snap;
    sharded.export_metrics(snap);
    return snap;
  };
  const obs::MetricsSnapshot first = exported();
  const std::string home =
      "{shard=\"" + std::to_string(sharded.shard_of(id)) + "\"}";
  ASSERT_NE(first.counter("evd_queue_ops_dropped_total" + home), nullptr);
  EXPECT_EQ(*first.counter("evd_queue_ops_dropped_total" + home), 8);
  EXPECT_EQ(*first.counter("evd_shard_ingress_dropped_total" + home), 4);

  obs::MetricsSnapshot before = first;
  for (int hop = 1; hop <= 2; ++hop) {
    SCOPED_TRACE("hop " + std::to_string(hop));
    sharded.migrate(id, 1 - sharded.shard_of(id));
    const obs::MetricsSnapshot after = exported();
    ASSERT_EQ(after.counters.size(), before.counters.size());
    for (size_t i = 0; i < before.counters.size(); ++i) {
      const auto& [name, value] = before.counters[i];
      ASSERT_EQ(after.counters[i].first, name);
      if (name == "evd_shard_migrations_total") {
        EXPECT_EQ(after.counters[i].second, hop);
      } else {
        EXPECT_EQ(after.counters[i].second, value) << name;
      }
    }
    before = after;
  }
}

TEST(ShardMigration, QuarantinedSessionsRefuseToMigrate) {
  ShardManager sharded = two_shards();
  const auto id =
      sharded.add([] { return std::make_unique<FaultableSession>(); });
  sharded.submit(id, event_at(5, /*x=*/13));  // poison
  sharded.pump_all();
  ASSERT_EQ(sharded.state(id), runtime::SessionState::Faulted);

  const Index home = sharded.shard_of(id);
  try {
    sharded.migrate(id, 1 - home);
    FAIL() << "expected Error(SessionFaulted)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::SessionFaulted);
  }
  // Refused means untouched: still quarantined, still on its home shard,
  // and no migration was recorded.
  EXPECT_EQ(sharded.shard_of(id), home);
  EXPECT_EQ(sharded.state(id), runtime::SessionState::Faulted);
  EXPECT_EQ(sharded.migrations(), 0);
}

TEST(ShardMigration, RebalanceRestoresRingPlacementAndSkipsFaulted) {
  ShardManagerConfig cfg;
  cfg.shards = 4;
  ShardManager sharded{cfg};
  std::vector<ShardManager::SessionId> ids;
  for (int s = 0; s < 8; ++s) {
    ids.push_back(
        sharded.add([] { return std::make_unique<RecordingSession>(); }));
  }
  const auto faulty =
      sharded.add([] { return std::make_unique<FaultableSession>(); });
  sharded.submit(faulty, event_at(5, /*x=*/13));
  sharded.pump_all();
  ASSERT_EQ(sharded.state(faulty), runtime::SessionState::Faulted);
  const Index faulty_home = sharded.shard_of(faulty);

  // Freshly placed population is already balanced: nothing to do.
  EXPECT_EQ(sharded.rebalance(), 0);

  // Displace two sessions by hand; rebalance must move exactly those two
  // back (minimal movement), and leave the quarantined session where its
  // fault happened even though hand-displacement could never apply to it.
  sharded.migrate(ids[0], (sharded.planned_shard_of(ids[0]) + 1) % 4);
  sharded.migrate(ids[3], (sharded.planned_shard_of(ids[3]) + 2) % 4);
  EXPECT_NE(sharded.shard_of(ids[0]), sharded.planned_shard_of(ids[0]));
  EXPECT_EQ(sharded.rebalance(), 2);
  for (const auto id : ids) {
    EXPECT_EQ(sharded.shard_of(id), sharded.planned_shard_of(id));
  }
  EXPECT_EQ(sharded.shard_of(faulty), faulty_home);
}

TEST(ShardMigration, SessionsWithoutCheckpointSupportAreTypedErrors) {
  ShardManager sharded = two_shards();
  // FaultableSession never overrides checkpoint_supported.
  const auto id =
      sharded.add([] { return std::make_unique<FaultableSession>(); });
  try {
    sharded.migrate(id, 1 - sharded.shard_of(id));
    FAIL() << "expected Error(CheckpointUnsupported)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::CheckpointUnsupported);
  }
}

}  // namespace
}  // namespace evd::shard
