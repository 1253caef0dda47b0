#include "shard/shard_manager.hpp"

#include <functional>
#include <string>
#include <utility>

#include "common/env.hpp"
#include "common/parallel.hpp"

namespace evd::shard {

Index resolve_shard_count(Index configured) {
  if (configured > 0) {
    return configured > kMaxShards ? kMaxShards : configured;
  }
  // Default 1: sharding is opt-in, and EVD_SHARDS=1 is the kill switch back
  // to the byte-identical single-manager path.
  return env_count("EVD_SHARDS", std::getenv("EVD_SHARDS"), 1, kMaxShards,
                   "single-manager serving");
}

ShardManager::ShardManager(ShardManagerConfig config)
    : config_(config),
      ring_(resolve_shard_count(config.shards)) {
  const Index n = ring_.shards();
  config_.shards = n;
  shards_.reserve(static_cast<size_t>(n));
  for (Index s = 0; s < n; ++s) {
    // One shard keeps the legacy unlabeled instruments (and no ring): the
    // facade must be indistinguishable from a bare SessionManager.
    auto state = std::make_unique<ShardState>(
        config_.burst,
        n > 1 ? "shard=\"" + std::to_string(s) + "\"" : std::string());
    if (n > 1) {
      state->ring =
          std::make_unique<MpscRing<IngressOp>>(config_.ingress_capacity);
    }
    shards_.push_back(std::move(state));
  }
}

const ShardManager::Placement& ShardManager::placement(SessionId id) const {
  if (id < 0 || id >= session_count()) {
    throw Error(ErrorCode::InvalidSessionId,
                "ShardManager: session " + std::to_string(id) +
                    " outside [0, " + std::to_string(session_count()) + ")");
  }
  return placements_[static_cast<size_t>(id)];
}

ShardManager::ShardState& ShardManager::shard_at(Index s) {
  if (s < 0 || s >= shard_count()) {
    throw Error(ErrorCode::InvalidArgument,
                "ShardManager: shard " + std::to_string(s) + " outside [0, " +
                    std::to_string(shard_count()) + ")");
  }
  return *shards_[static_cast<size_t>(s)];
}

const ShardManager::ShardState& ShardManager::shard_at(Index s) const {
  return const_cast<ShardManager*>(this)->shard_at(s);
}

ShardManager::SessionId ShardManager::add(
    SessionFactory factory, const runtime::ManagedSessionConfig& config) {
  if (!factory) {
    throw Error(ErrorCode::InvalidArgument,
                "ShardManager::add: null session factory");
  }
  std::unique_ptr<core::StreamSession> session = factory();
  if (!session) {
    throw Error(ErrorCode::InvalidArgument,
                "ShardManager::add: factory produced no session");
  }
  const SessionId id = session_count();
  Placement p;
  p.shard = shard_count() > 1 ? ring_.shard_of(static_cast<std::uint64_t>(id))
                              : 0;
  p.inner = shards_[static_cast<size_t>(p.shard)]->manager.add(
      std::move(session), config);
  placements_.push_back(p);
  recipes_.push_back(Recipe{std::move(factory), config});
  return id;
}

bool ShardManager::submit_op(SessionId id, const runtime::StreamOp& op) {
  const Placement p = placement(id);
  ShardState& st = *shards_[static_cast<size_t>(p.shard)];
  if (!st.ring) {
    // shards == 1: the legacy direct path, admission and all.
    return op.kind == runtime::StreamOp::Kind::Feed
               ? st.manager.submit(p.inner, op.event())
               : st.manager.submit_advance(p.inner, op.t);
  }
  if (!st.ring->try_push(IngressOp{id, op})) {
    st.ops_dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  st.ops_accepted.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ShardManager::submit(SessionId id, const events::Event& event) {
  return submit_op(id, runtime::StreamOp::feed(event));
}

bool ShardManager::submit_advance(SessionId id, TimeUs t) {
  return submit_op(id, runtime::StreamOp::advance(t));
}

Index ShardManager::drain_ring(Index s) {
  ShardState& st = *shards_[static_cast<size_t>(s)];
  if (!st.ring) return 0;
  Index drained = 0;
  IngressOp in;
  while (st.ring->try_pop(in)) {
    // Resolve the placement at drain time: after a migration a straggler
    // op can sit on the old shard's ring, and it must follow its session
    // rather than hit a retired slot. Forwarding re-enqueues (multi-producer
    // push is safe from here); a full target ring accounts the loss like
    // any other ring rejection.
    const Placement p = placements_[static_cast<size_t>(in.global)];
    if (p.shard != s) {
      ShardState& home = *shards_[static_cast<size_t>(p.shard)];
      if (home.ring && !home.ring->try_push(in)) {
        home.ops_dropped.fetch_add(1, std::memory_order_relaxed);
      }
      ++drained;
      continue;
    }
    // Inner submit runs admission / stamping exactly as the direct path
    // would; a refusal is already accounted in the inner manager's ledgers.
    if (in.op.kind == runtime::StreamOp::Kind::Feed) {
      (void)st.manager.submit(p.inner, in.op.event());
    } else {
      (void)st.manager.submit_advance(p.inner, in.op.t);
    }
    ++drained;
  }
  return drained;
}

Index ShardManager::pump() {
  const Index n = shard_count();
  if (n == 1) return shards_[0]->manager.pump();
  // Grain 1 over shards: shard s is chunk s, so one worker owns a shard's
  // entire drain + inner pump per round (static chunk assignment, the same
  // single-owner argument the SessionManager makes per session). The inner
  // pump's own parallel_reduce nests inside a region and therefore runs
  // inline on this worker — per-shard pumps stay strictly serial per shard.
  return par::parallel_reduce(
      0, n, 1, Index{0},
      [&](Index s, Index) {
        const Index drained = drain_ring(s);
        return drained + shards_[static_cast<size_t>(s)]->manager.pump();
      },
      std::plus<Index>());
}

void ShardManager::pump_all() {
  while (pump() > 0) {
  }
}

void ShardManager::flush_shard(Index s) {
  ShardState& st = *shards_[static_cast<size_t>(s)];
  // Ring first, then queues; repeat in case the drain refilled a queue the
  // pump had already passed. Stops when a full round moves nothing.
  for (;;) {
    Index moved = drain_ring(s);
    st.manager.pump_all();
    if (moved == 0) break;
  }
}

void ShardManager::migrate(SessionId id, Index target_shard) {
  const Placement from = placement(id);
  ShardState& dst = shard_at(target_shard);
  if (target_shard == from.shard) return;
  ShardState& src = *shards_[static_cast<size_t>(from.shard)];
  if (src.manager.state(from.inner) == runtime::SessionState::Faulted) {
    throw Error(ErrorCode::SessionFaulted,
                "ShardManager::migrate: session " + std::to_string(id) +
                    " is quarantined on shard " + std::to_string(from.shard) +
                    "; quarantine is shard-local and does not migrate");
  }
  // Flush everything in flight, then re-check: the flush itself can fault
  // the session (that is the point of applying the backlog before moving).
  flush_shard(from.shard);
  if (src.manager.state(from.inner) == runtime::SessionState::Faulted) {
    throw Error(ErrorCode::SessionFaulted,
                "ShardManager::migrate: session " + std::to_string(id) +
                    " faulted while flushing for migration");
  }
  std::vector<std::uint8_t> bytes;
  if (!src.manager.session(from.inner).save_state(bytes)) {
    throw Error(ErrorCode::CheckpointUnsupported,
                "ShardManager::migrate: session " + std::to_string(id) +
                    " cannot serialize its state");
  }
  const Recipe& recipe = recipes_[static_cast<size_t>(id)];
  std::unique_ptr<core::StreamSession> fresh = recipe.factory();
  if (!fresh) {
    throw Error(ErrorCode::InvalidArgument,
                "ShardManager::migrate: factory produced no session");
  }
  fresh->load_state(bytes);
  const TimeUs watermark = src.manager.last_feed_time(from.inner);
  // Add at the target *before* retiring the source: if the target refuses
  // (overload ladder at RejectAdmits) the session is still live where it
  // was and the migration simply failed.
  const runtime::SessionId new_inner =
      dst.manager.add(std::move(fresh), recipe.config);
  dst.manager.seed_feed_watermark(new_inner, watermark);
  src.retired += src.manager.retire(from.inner);
  placements_[static_cast<size_t>(id)] = Placement{target_shard, new_inner};
  ++migrations_;
}

Index ShardManager::rebalance() {
  Index moved = 0;
  for (SessionId id = 0; id < session_count(); ++id) {
    const Placement p = placements_[static_cast<size_t>(id)];
    const Index planned = ring_.shard_of(static_cast<std::uint64_t>(id));
    if (planned == p.shard) continue;
    if (shards_[static_cast<size_t>(p.shard)]->manager.state(p.inner) ==
        runtime::SessionState::Faulted) {
      continue;  // quarantine is shard-local; the tombstone stays put
    }
    migrate(id, planned);
    ++moved;
  }
  return moved;
}

ShardManager::Stats ShardManager::stats() const {
  Stats out;
  out.shards = shard_count();
  out.migrations = migrations_;
  for (const auto& st : shards_) {
    // Every retired slot's ledger, summed at retire() — a migration
    // therefore never changes any aggregate.
    out += st->manager.stats();
    out += st->retired;
    out.ingress_ops += st->ops_accepted.load(std::memory_order_relaxed);
    out.ingress_dropped += st->ops_dropped.load(std::memory_order_relaxed);
  }
  // Ring rejections are losses in front of everything else.
  out.totals.events_dropped += out.ingress_dropped;
  return out;
}

void ShardManager::export_metrics(obs::MetricsSnapshot& out) const {
  for (Index s = 0; s < shard_count(); ++s) {
    const ShardState& st = *shards_[static_cast<size_t>(s)];
    st.manager.export_metrics(out, st.retired);
    if (!st.ring) continue;
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    out.add_counter("evd_shard_ingress_ops_total" + label,
                    st.ops_accepted.load(std::memory_order_relaxed));
    out.add_counter("evd_shard_ingress_dropped_total" + label,
                    st.ops_dropped.load(std::memory_order_relaxed));
  }
  if (shard_count() > 1) {
    out.add_counter("evd_shard_migrations_total", migrations_);
  }
}

}  // namespace evd::shard
