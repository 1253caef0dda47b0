// Sharded serving: per-core shard groups over the single-manager runtime.
//
// The SessionManager (runtime/session_manager.hpp) is deterministic and
// parallel *within* a pump round, but its submit side shares one admission
// pipeline and one set of queues — every producer thread funnels through
// the same structure the pump loop reads. The ShardManager partitions the
// serving plane instead (DESIGN.md section 15):
//
//   shard k owns   a private SessionManager (its own sessions, queues,
//                  admission ladder, plan — obs instruments labeled
//                  shard="k"), and
//   an ingress     a fixed-capacity lock-free MPSC ring (mpsc_ring.hpp):
//   ring           producers try_push ops from any thread; the shard's
//                  slice of pump() drains them into the inner manager,
//                  where admission / validation / latency stamping run
//                  exactly as they always have.
//
// Session → shard placement is a consistent-hash ring over virtual nodes
// (hash_ring.hpp, at its default seed and vnode count): deterministic,
// balanced to the ring's max/mean bound, and monotone under shard-count
// changes — so rebalance() migrates the minimal set of sessions.
//
// Migration rides the PR 6 checkpoint framing end to end: flush the source
// shard (ring + backlog), save_state the session, retire() the source slot
// (its ledgers come back to the ShardManager so totals stay conserved),
// rebuild from the factory at the target, load_state, seed the monotone
// watermark. The shard.migration_replay oracle proves the decision streams
// bitwise unaffected. Migrating a quarantined session is refused with
// Error(SessionFaulted): quarantine is shard-local containment, and a
// faulted session's backlog is loss-accounted where it faulted, not moved.
//
// Determinism (the shard.sharded_vs_sequential oracles pin this bitwise):
// a session's decision stream depends only on its own op order. The ring
// preserves per-producer FIFO, the inner managers are the already-proved
// deterministic runtime, and sessions never share mutable state across
// shards — so N shards at any thread count replay exactly the sequential
// stream.
//
// Concurrency contract: with shards > 1, submit()/submit_advance() are safe
// from any thread, concurrently with pump(). Everything else — add,
// migrate, rebalance, stats, pump itself — is control-plane: one thread at
// a time, serialized with each other (the usual single-owner pump loop).
// add, migrate and rebalance also write the placement table that submit
// reads (add may grow it, a migration rewrites an entry), so producers must
// be quiesced around those three calls as well — submitting during them is
// a data race. What drain_ring's forwarding serves is the op that lands on
// the source shard's ring after migrate has flushed it but before the
// placement flips: a submit() made from inside the target's session
// factory, on the migrating thread. The next drain resolves the placement
// afresh and forwards such an op to the session's new shard.
// With shards == 1 the ShardManager collapses to a byte-identical facade
// over one legacy unlabeled SessionManager: no rings, no extra instruments,
// submit delegates directly — EVD_SHARDS=1 is the kill switch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "runtime/session_manager.hpp"
#include "shard/hash_ring.hpp"
#include "shard/mpsc_ring.hpp"

namespace evd::shard {

/// Recreates a session of the right pipeline/config for checkpoint
/// restoration at a migration target. Must produce a session whose
/// paradigm, geometry and buffer sizes match what save_state captured.
using SessionFactory = std::function<std::unique_ptr<core::StreamSession>()>;

struct ShardManagerConfig {
  /// Shard count; 0 resolves EVD_SHARDS (default 1 — sharding is opt-in).
  Index shards = 0;
  /// Per-shard pump burst, forwarded to each inner SessionManager.
  Index burst = 256;
  /// Per-shard ingress ring capacity in ops (rounded up to a power of two).
  Index ingress_capacity = 4096;
};

/// EVD_SHARDS resolution: strictly positive integer, warn-and-fallback on
/// garbage, clamped to kMaxShards — the same discipline (and parser) as
/// EVD_THREADS. `configured` > 0 bypasses the environment.
inline constexpr Index kMaxShards = 64;
Index resolve_shard_count(Index configured);

class ShardManager {
 public:
  using SessionId = runtime::SessionId;

  explicit ShardManager(ShardManagerConfig config = {});

  /// Open a session from `factory` and place it on the hash ring. Returns a
  /// dense global id (stable across migrations — callers never see inner
  /// ids). The factory is retained for checkpoint rebuilds at migration
  /// targets.
  SessionId add(SessionFactory factory,
                const runtime::ManagedSessionConfig& config = {});

  /// Queue an op for the session, from any thread (shards > 1). False when
  /// not admitted: a full ingress ring (accounted in stats().ingress_dropped)
  /// or, on the shards == 1 direct path, whatever the inner manager
  /// refused.
  bool submit(SessionId id, const events::Event& event);
  bool submit_advance(SessionId id, TimeUs t);

  /// One scheduling round: every shard, in parallel over the evd::par pool
  /// (grain 1 — one worker owns one shard's drain + pump per round), drains
  /// its ingress ring into its manager and pumps a round. Returns ops
  /// processed plus ops drained (0 == fully idle).
  Index pump();
  /// pump() until idle.
  void pump_all();

  Index shard_count() const noexcept {
    return static_cast<Index>(shards_.size());
  }
  Index session_count() const noexcept {
    return static_cast<Index>(placements_.size());
  }

  /// Current shard of a session / where the hash ring says it belongs.
  /// They differ only between a topology change and the next rebalance().
  Index shard_of(SessionId id) const { return placement(id).shard; }
  Index planned_shard_of(SessionId id) const {
    (void)placement(id);  // bounds check
    return ring_.shard_of(static_cast<std::uint64_t>(id));
  }

  /// The shard's inner manager (plans, admission, restore — all per-shard).
  runtime::SessionManager& shard(Index s) { return shard_at(s).manager; }
  const runtime::SessionManager& shard(Index s) const {
    return shard_at(s).manager;
  }

  // Session accessors, delegating to the owning shard.
  core::StreamSession& session(SessionId id) {
    const Placement p = placement(id);
    return shards_[static_cast<size_t>(p.shard)]->manager.session(p.inner);
  }
  runtime::SessionState state(SessionId id) const {
    const Placement p = placement(id);
    return shards_[static_cast<size_t>(p.shard)]->manager.state(p.inner);
  }
  core::SessionStats stats(SessionId id) const {
    const Placement p = placement(id);
    return shards_[static_cast<size_t>(p.shard)]->manager.stats(p.inner);
  }
  Index queued(SessionId id) const {
    const Placement p = placement(id);
    return shards_[static_cast<size_t>(p.shard)]->manager.queued(p.inner);
  }
  Index drain(SessionId id, std::vector<core::Decision>& out) {
    const Placement p = placement(id);
    return shards_[static_cast<size_t>(p.shard)]->manager.drain(p.inner, out);
  }

  /// Move a session to `target_shard` through checkpoint/restore (see the
  /// header comment for the exact sequence). Throws Error(SessionFaulted)
  /// for a quarantined session, Error(CheckpointUnsupported) when the
  /// session cannot serialize, Error(InvalidArgument) on a bad target.
  /// No-op when the session already lives there.
  void migrate(SessionId id, Index target_shard);

  /// Migrate every Active session whose current shard disagrees with the
  /// hash ring (faulted sessions stay put — quarantine is shard-local).
  /// Returns the number of sessions moved.
  Index rebalance();

  std::int64_t migrations() const noexcept { return migrations_; }

  /// The serving-plane dashboard, aggregated across shards: the inner
  /// managers' ledgers plus every retired slot's ledger (so migration never
  /// changes a total), the ingress-ring ledgers, and the migration count.
  /// Ring drops are charged to totals.events_dropped — an op lost at the
  /// ring is exactly as lost as one the queue shed.
  struct Stats : runtime::SessionManager::AggregateStats {
    Index shards = 0;
    std::int64_t migrations = 0;
    std::int64_t ingress_ops = 0;      ///< Ops accepted by the rings.
    std::int64_t ingress_dropped = 0;  ///< Ops rejected by full rings.
  };
  Stats stats() const;

  /// Each shard's SessionManager::export_metrics with its migrated-out
  /// slots folded back in (so no counter drops across migrate()), plus the
  /// per-shard ring ledger and the migration count when shards > 1. With
  /// one shard the output equals a bare SessionManager's.
  void export_metrics(obs::MetricsSnapshot& out) const;

 private:
  /// One queued ingress op: resolved global id + the op. Admission (and its
  /// deterministic stream-time token buckets) runs at drain, in the inner
  /// manager, where it has always run.
  struct IngressOp {
    SessionId global = 0;
    runtime::StreamOp op{};
  };
  static_assert(sizeof(IngressOp) <= 32, "an ingress cell's op is 4 words");

  struct ShardState {
    runtime::SessionManager manager;
    std::unique_ptr<MpscRing<IngressOp>> ring;  ///< Null when shards == 1.
    /// The ring ledger. Written by producers — hence atomic.
    std::atomic<std::int64_t> ops_accepted{0};
    std::atomic<std::int64_t> ops_dropped{0};
    /// Sum of the ledgers of slots that migrated out of this shard, folded
    /// into stats() and export_metrics() so a migration changes no total
    /// and lowers no shard's series.
    runtime::SessionManager::AggregateStats retired;
    explicit ShardState(Index burst, std::string label)
        : manager(burst, std::move(label)) {}
  };

  /// Where a session lives: the routing read by every submit, ring drain
  /// and accessor. Kept apart from the Recipe so that routing walks a flat
  /// 16-byte-per-session table.
  struct Placement {
    Index shard = 0;
    runtime::SessionId inner = 0;
  };
  /// How to rebuild a session at a migration target: written by add(),
  /// read only by migrate().
  struct Recipe {
    SessionFactory factory;
    runtime::ManagedSessionConfig config;
  };

  /// The session's placement; throws Error(InvalidSessionId) on a bad id.
  const Placement& placement(SessionId id) const;
  ShardState& shard_at(Index s);
  const ShardState& shard_at(Index s) const;

  bool submit_op(SessionId id, const runtime::StreamOp& op);
  /// Drain shard s's ring into its inner manager; returns ops drained.
  Index drain_ring(Index s);
  /// Drain + pump shard s until its ring and queues are empty.
  void flush_shard(Index s);

  ShardManagerConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// Indexed by global id, which is also the session's hash-ring key.
  std::vector<Placement> placements_;
  std::vector<Recipe> recipes_;
  std::int64_t migrations_ = 0;
};

}  // namespace evd::shard
