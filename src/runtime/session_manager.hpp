// Multi-session serving over the evd::par pool.
//
// The SessionManager owns N (session, ingress-queue) pairs and pumps them
// through an execution plan (sched/plan.hpp):
//
//   pump() round:  parallel_reduce over plan regions, grain 1 — region r
//                  is one chunk, so every session in it runs on exactly one
//                  worker per round. Each visit processes up to the plan's
//                  burst of queued ops, in FIFO order, then yields. With no
//                  installed plan the manager pumps Plan::round_robin over
//                  the pool (worker w gets sessions w, w+W, ... at `burst`).
//                  Each region returns the ops it popped and the caller
//                  settles the occupancy ledger once per round: no worker
//                  writes memory shared with another worker per op.
//                  The round is event-driven: one ready byte per session,
//                  set by submit when the queue holds ops and cleared by
//                  the owning worker when a visit empties it (and by the
//                  drains in quarantine and retire). A region skips every
//                  session whose byte is clear without touching its slot,
//                  so a round costs the sessions with work, not the
//                  sessions open; the visit order of those with work is
//                  the plan's. Each byte has one writer at a time — submit
//                  and pump never overlap on one manager, and in a round
//                  only the session's region worker writes it — so the
//                  flags need no atomics.
//
// Determinism argument (the multiplexed-vs-sequential oracle in evd::check
// enforces this bitwise):
//   * Sessions share only const model parameters — every mutable byte a
//     session touches (frame scratch, SNN state, graph buffers) lives in
//     the session itself, and a session is only ever touched by the one
//     worker that owns its chunk this round.
//   * Within a session, ops apply in submission order regardless of which
//     worker runs the chunk or how rounds interleave across sessions —
//     so each session's decision stream is identical to feeding the same
//     ops directly, sequentially.
//   * A shared model is read-only while it serves: layer forward() caches
//     are train-gated off in inference, open_session() freezes the SNN/GNN
//     transposed weight copies once on the control thread, and the op
//     counters are thread_local, so concurrent sessions do not race on the
//     shared model (workers simply don't count ops).
//
// Back-pressure is explicit: submit() returns false when the session's
// queue rejects/evicts (see EventQueue), and the loss is charged to the
// session's events_dropped stat.
//
// Fault tolerance (DESIGN.md section 11):
//   * A session whose op throws — injected fault, validation-guard trip, or
//     a genuine pipeline exception — is either restored from its last
//     checkpoint (replaying the ops applied since, then retrying the
//     faulting op) or, failing that, quarantined: state -> Faulted, backlog
//     drained to loss stats, no further admits. Either way every other
//     session's decision stream is bit-for-bit unaffected (the
//     runtime.fault_isolation oracle enforces this).
//   * Admission control in front of every queue: per-session stream-time
//     token buckets plus a global overload ladder (see fault/admission.hpp),
//     both off by default, every shed accounted in stats().
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "fault/admission.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/session_base.hpp"
#include "sched/plan.hpp"

namespace evd::runtime {

using SessionId = Index;

/// Feed→decision latency is sampled, not exhaustively measured: every
/// kLatencySampleEvery-th op a session's queue admits is stamped with the
/// submit time, and only stamped ops pay for clock reads in pump(). A full
/// per-op measurement would cost two vDSO clock reads per event — more than
/// many events cost to serve — and latency quantiles do not need it; 1-in-16
/// uniform sampling keeps the histograms faithful at ~1/16th the overhead.
/// Must be a power of two (the stamp check is a mask). Deterministic: the
/// sample schedule depends only on each queue's admit ledger.
inline constexpr std::int64_t kLatencySampleEvery = 16;

/// Retired slots are the sharded runtime's migration tombstones: the session
/// object has moved to another manager (evd::shard checkpoints it out), the
/// slot keeps its id so existing ids stay dense, and it never pumps or
/// admits again.
enum class SessionState : std::uint8_t { Active, Faulted, Retired };

struct ManagedSessionConfig {
  /// Ingress queue capacity (ops: events + advances).
  Index queue_capacity = 4096;
  OverflowPolicy overflow = OverflowPolicy::DropNewest;
  /// Checkpoint cadence in applied ops; 0 disables checkpoint/restore for
  /// this session. When > 0 an initial checkpoint is taken at add() so a
  /// fault is always recoverable (possibly to the fresh-session state).
  Index checkpoint_every = 0;
  /// On an op fault, restore the last checkpoint, replay the ops applied
  /// since, and retry the faulting op before resorting to quarantine.
  /// Requires checkpoint_every > 0 and a session that supports save_state.
  bool restore_on_fault = true;
  /// Ingress validation guard, applied as ops are popped in pump(): events
  /// outside [0,w)x[0,h) raise Error(MalformedEvent). 0 disables.
  Index validate_width = 0;
  Index validate_height = 0;
  /// Reject events whose timestamp regresses below the last applied feed
  /// (Error(OutOfOrderEvent)). A validation trip faults the session.
  bool validate_monotone_time = false;
  /// Token-bucket admission: events/s of *stream time* (deterministic);
  /// 0 disables. Advances are never rate-limited.
  double rate_limit_eps = 0.0;
  double rate_limit_burst = 256.0;
  /// Overload-ladder priority: sessions with priority <=
  /// fault::kShedPriorityMax shed noise-classified events first.
  Index priority = 0;
};

class SessionManager {
 public:
  /// Ops each session processes per pump() round before yielding. Small
  /// bursts interleave sessions more fairly; large bursts amortise
  /// scheduling. Either way the per-session op order — and therefore every
  /// decision stream — is unchanged.
  ///
  /// `instrument_label` is an optional obs label fragment (e.g. `shard="2"`)
  /// spliced into every registry instrument this manager owns and every
  /// ledger series export_metrics() writes, so the sharded runtime gets
  /// per-shard series instead of all shards folding into one shared name.
  /// Empty (the default) keeps the unlabeled names.
  explicit SessionManager(Index burst = 256, std::string instrument_label = "");

  /// Take ownership of a session opened by a pipeline. Returns its id
  /// (dense, starting at 0). Throws Error(AdmissionRejected) while the
  /// overload ladder is at RejectAdmits.
  SessionId add(std::unique_ptr<core::StreamSession> session,
                const ManagedSessionConfig& config = {});

  /// Queue an event / advance mark for the session. False when the op was
  /// not admitted — overflow-policy loss, rate limit, overload shedding, or
  /// a Faulted session (each accounted separately in stats()).
  bool submit(SessionId id, const events::Event& event);
  bool submit_advance(SessionId id, TimeUs t);

  /// One scheduling round: each region of the installed plan is pumped by
  /// one worker, visiting its sessions in plan order at the plan's burst.
  /// Without an installed plan — or when add() made it stale — the round
  /// runs Plan::round_robin(n, par::thread_count(), burst), cached until n
  /// or the thread count changes. Visits run under the
  /// "runtime.session_burst" span, or "sched.region" under an installed
  /// plan. Pumped from inside a parallel region
  /// (a shard worker), where the round runs serially anyway, the default
  /// plan is one region in id order. Either way every session applies its
  /// own ops in FIFO order on a single worker per round, so the decision
  /// streams are bitwise identical (sched.plan_vs_sequential oracles).
  /// Sessions with an empty queue are skipped on their ready flag, without
  /// a visit. Must not run concurrently with submit() on this manager.
  /// Returns the total number of ops processed (0 == all queues empty).
  Index pump();

  /// Install an execution plan (see sched/plan.hpp). The plan must be
  /// structurally valid and cover exactly the current session count;
  /// throws Error(InvalidArgument) otherwise — and a rejected plan leaves
  /// the previous plan, its bytes, and every session's execution path
  /// untouched. On success the plan's placements are applied to the live
  /// sessions: each routable session (SessionBase) gets its paradigm's
  /// placed execution path, sessions of unplaced paradigms fall back to
  /// Default. The serialized form is kept alongside (plan_bytes()) so
  /// checkpoint/restore flows carry the plan — and therefore the routes —
  /// with the session state.
  void set_plan(sched::Plan plan);
  /// Drop the plan and reset every session's execution path to Default.
  void clear_plan() noexcept;
  bool has_plan() const noexcept { return plan_ != nullptr; }
  const sched::Plan& plan() const;
  /// Checkpoint-framed bytes of the installed plan (empty when none).
  const std::vector<std::uint8_t>& plan_bytes() const noexcept {
    return plan_bytes_;
  }
  /// Deserialize + install — the restore-side counterpart of plan_bytes().
  void install_plan_bytes(std::span<const std::uint8_t> bytes);

  /// pump() until every queue is empty.
  void pump_all();

  Index session_count() const noexcept {
    return static_cast<Index>(slots_.size());
  }
  Index queued(SessionId id) const { return slot(id).queue.size(); }

  core::StreamSession& session(SessionId id) { return *slot(id).session; }
  const core::StreamSession& session(SessionId id) const {
    return *slot(id).session;
  }

  SessionState state(SessionId id) const { return slot(id).state; }
  /// what() of the exception that faulted the session (empty while Active).
  const std::string& fault_message(SessionId id) const {
    return slot(id).fault_message;
  }

  /// Manually restore a Faulted session from its last checkpoint (replaying
  /// the logged ops) and return it to Active. False when the session has no
  /// checkpoint to restore from; throws if the restore itself fails.
  bool restore(SessionId id);

  /// Monotone-guard watermark (highest applied feed timestamp) — manager
  /// state the session's own checkpoint cannot carry. Migration reads it at
  /// the source and seeds it at the target so validate_monotone_time keeps
  /// rejecting regressions across the move.
  TimeUs last_feed_time(SessionId id) const { return slot(id).last_feed_t; }
  void seed_feed_watermark(SessionId id, TimeUs t) {
    Slot& s = slot(id);
    s.last_feed_t = t;
    s.checkpoint_last_feed_t = t;
  }

  /// Force a checkpoint now (also resets the replay log). False when the
  /// session declines (no checkpoint support or checkpoint_every == 0).
  bool checkpoint_now(SessionId id);

  /// Install the global overload ladder (see fault/admission.hpp). Enabling
  /// it gives every live slot its noise gate; disabling keeps the gates, so
  /// a later enable finds them warm.
  void set_admission(const fault::AdmissionConfig& config);
  const fault::AdmissionConfig& admission() const noexcept {
    return admission_;
  }
  /// Current ladder rung, from aggregate queue occupancy.
  fault::DegradationLevel admission_level() const noexcept;
  /// Aggregate queued ops / aggregate queue capacity, in [0, 1].
  double occupancy() const noexcept;

  /// Session stats with ingress-queue drops, admission sheds and quarantine
  /// losses folded in.
  core::SessionStats stats(SessionId id) const;

  /// The session's ingress-queue ledger (pushed / dropped / popped).
  const EventQueue::Stats& queue_stats(SessionId id) const {
    return slot(id).queue.stats();
  }

  /// Admission / degradation ledger: every op the manager refused or shed,
  /// by reason. Summed across sessions in AggregateStats.
  struct SheddingStats {
    std::int64_t rate_limited = 0;     ///< Token-bucket rejections.
    std::int64_t shed_noise = 0;       ///< DropNoise rung sheds.
    std::int64_t rejected_overload = 0;///< RejectAdmits rung rejections.
    std::int64_t rejected_faulted = 0; ///< Submits to quarantined sessions.
    std::int64_t coarsened_rounds = 0; ///< pump() rounds at CoarsenBursts+.

    bool operator==(const SheddingStats&) const = default;
  };

  /// Fault / recovery ledger.
  struct FaultStats {
    std::int64_t faults = 0;      ///< Op applications that threw.
    std::int64_t restores = 0;    ///< Successful checkpoint recoveries.
    std::int64_t checkpoints = 0; ///< Checkpoints taken.
    std::int64_t quarantine_dropped = 0;  ///< Backlog ops lost to quarantine.
    Index quarantined_sessions = 0;

    bool operator==(const FaultStats&) const = default;
  };

  /// The serving ledger — everything the manager knows, summed across
  /// sessions: totals include per-session events/decisions (with ingress
  /// drops folded in), the aggregated queue ledger, and the shedding /
  /// fault ledgers. One value type from slot to shard: retire() returns a
  /// slot's share in it, and ShardManager::Stats extends it.
  struct AggregateStats {
    core::SessionStats totals;
    EventQueue::Stats queues;
    SheddingStats shedding;
    FaultStats faults;
    Index sessions = 0;

    AggregateStats& operator+=(const AggregateStats& o);
    bool operator==(const AggregateStats&) const = default;
  };
  AggregateStats stats() const;

  /// Append the ledger, plus `retired` (the slots evd::shard moved out), to
  /// `out` as series under the instrument label: queue drops, sheds, faults,
  /// restores and the active-session gauge; and the live sessions' fed,
  /// emitted and sink-dropped counts by paradigm. obs::snapshot() never
  /// reads manager state: this is the control-plane call that does.
  void export_metrics(obs::MetricsSnapshot& out,
                      const AggregateStats& retired) const;
  void export_metrics(obs::MetricsSnapshot& out) const {
    export_metrics(out, AggregateStats{});
  }

  /// Tombstone the slot after its session has been checkpointed out
  /// (evd::shard migration). Any unflushed backlog is drained to the queue's
  /// loss ledger first, so nothing vanishes silently. Returns the slot's
  /// ledger_of(), which stats() stops reporting from this manager (session
  /// counters travel in the session's checkpoint instead). Throws
  /// Error(InvalidSessionId) on an already-retired id.
  AggregateStats retire(SessionId id);

  Index drain(SessionId id, std::vector<core::Decision>& out) {
    return slot(id).session->drain(out);
  }

 private:
  struct Slot {
    std::unique_ptr<core::StreamSession> session;
    EventQueue queue;
    ManagedSessionConfig config;
    SessionState state = SessionState::Active;
    std::string fault_message;
    TimeUs last_feed_t = std::numeric_limits<TimeUs>::min();
    // Checkpoint/restore (active when config.checkpoint_every > 0 and the
    // session supports save_state).
    bool checkpointing = false;
    std::vector<std::uint8_t> checkpoint;
    std::vector<StreamOp> replay_log;  ///< Ops applied since the checkpoint.
    Index ops_since_checkpoint = 0;
    /// Monotone-guard watermark at checkpoint time (manager-side state the
    /// session's own checkpoint cannot carry).
    TimeUs checkpoint_last_feed_t = std::numeric_limits<TimeUs>::min();
    // Admission.
    fault::TokenBucket bucket;
    /// Made once admission is enabled (set_admission, or add() while
    /// enabled) and kept from then on; null in a slot that never saw it.
    std::unique_ptr<fault::NoiseGate> noise_gate;
    // Per-slot ledgers (submit-side fields written by the submitting thread,
    // pump-side fields by the one worker that owns the slot per round).
    SheddingStats shed;
    FaultStats faults;
    Slot(std::unique_ptr<core::StreamSession> s,
         const ManagedSessionConfig& cfg)
        : session(std::move(s)),
          queue(cfg.queue_capacity, cfg.overflow),
          config(cfg) {}
  };

  Slot& slot(SessionId id);
  const Slot& slot(SessionId id) const;
  /// The slot's queue, shedding and fault ledgers, with the losses they
  /// record summed into totals.events_dropped (its other totals are zero).
  static AggregateStats ledger_of(const Slot& s);

  /// Admission pipeline shared by submit/submit_advance. Returns false (and
  /// accounts the shed) when the op is refused before reaching the queue.
  bool admit(SessionId id, Slot& s, StreamOp op);
  /// Enqueue, charge occupancy, and raise the session's ready flag.
  bool push_op(SessionId id, Slot& s, const StreamOp& op);

  /// Apply one op to the session, running the injection site and the
  /// validation guard. Throws on any fault.
  void apply_op(SessionId id, Slot& s, const StreamOp& op);
  /// Checkpoint-restore + replay + retry after apply_op threw. True when
  /// the session recovered and the faulting op was applied.
  bool recover(SessionId id, Slot& s, const StreamOp& op);
  void quarantine(SessionId id, Slot& s, const char* why);
  /// Log `op` against the current checkpoint; take a new checkpoint when
  /// the cadence (or the replay-log bound) says so.
  void note_applied(Slot& s, const StreamOp& op);
  bool take_checkpoint(Slot& s);

  /// One session's slice of a pump round: up to `burst` queued ops under
  /// the named obs span. Returns the ops it popped, the faulting one
  /// included, which pump() settles against queued_ops_.
  Index pump_session(Index i, Index burst, const char* span_name);
  /// The round-robin plan pump() runs when no plan is installed, dealt
  /// over the pool (one region when already inside a parallel region) and
  /// rebuilt only when `n` or that worker count changed.
  const sched::Plan& default_plan(Index n);

  /// Push the installed plan's placements (or Default, with no plan) into
  /// every session's execution path.
  void apply_routes() noexcept;

  Index burst_;
  std::string instrument_label_;  ///< Obs label fragment, e.g. `shard="2"`.
  std::int64_t rejected_retired_ = 0;  ///< Submits to retired (migrated) ids.
  std::unique_ptr<sched::Plan> plan_;   ///< Installed execution plan.
  std::vector<std::uint8_t> plan_bytes_;  ///< Serialized form of plan_.
  sched::Plan default_plan_;  ///< Cached default_plan() result.
  Index default_plan_workers_ = 0;  ///< Worker count default_plan_ deals.
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Per session: 1 exactly when its queue holds ops (outside a visit).
  /// pump() reads it before the slot; the header comment says who writes.
  std::vector<std::uint8_t> ready_;
  fault::AdmissionConfig admission_;
  std::atomic<std::int64_t> queued_ops_{0};
  std::int64_t capacity_total_ = 0;
  std::int64_t coarsened_rounds_ = 0;  ///< pump() rounds run coarsened.

  // Injection sites (inert single-branch checks unless armed; see
  // fault/injector.hpp). Keyed by session id.
  fault::Site site_malformed_;
  fault::Site site_out_of_order_;
  fault::Site site_duplicate_;
  fault::Site site_storm_;
  fault::Site site_op_fault_;

  // Registry instruments (shared names — registering twice is a no-op):
  // what pump workers record per round, which no ledger field holds.
  obs::Histogram latency_;        ///< Feed→decision latency, µs.
  obs::Counter ops_processed_;
  obs::Counter pump_rounds_;
  obs::Gauge overload_gauge_;        ///< evd_overload_level
  obs::Counter planned_rounds_;      ///< evd_sched_planned_rounds_total
};

}  // namespace evd::runtime
