#include "runtime/session_manager.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>

#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace evd::runtime {
namespace {

// Named injection sites the manager visits (see fault/injector.hpp). All
// keyed by session id, so an armed plan with `target` set pins the visit
// counter to one submit caller / one pump worker.
constexpr const char* kSiteMalformed = "runtime.submit.malformed";
constexpr const char* kSiteOutOfOrder = "runtime.submit.out_of_order";
constexpr const char* kSiteDuplicate = "runtime.submit.duplicate";
constexpr const char* kSiteStorm = "runtime.submit.overflow_storm";
constexpr const char* kSiteOpFault = "runtime.pump.op_fault";

/// "name" -> "name{label}" (or "name" untouched when the label is empty) —
/// how a sharded manager's instruments become per-shard series.
std::string labelled(const char* name, const std::string& label) {
  if (label.empty()) return name;
  return std::string(name) + "{" + label + "}";
}

}  // namespace

SessionManager::SessionManager(Index burst, std::string instrument_label)
    : burst_(burst < 1 ? 1 : burst),
      instrument_label_(std::move(instrument_label)) {
  obs::init();  // wires the evd::par collector into snapshots
  const std::string& l = instrument_label_;
  latency_ = obs::histogram(labelled("evd_feed_to_decision_us", l));
  ops_processed_ = obs::counter(labelled("evd_runtime_ops_processed_total", l));
  pump_rounds_ = obs::counter(labelled("evd_runtime_pump_rounds_total", l));
  overload_gauge_ = obs::gauge(labelled("evd_overload_level", l));
  planned_rounds_ = obs::counter(labelled("evd_sched_planned_rounds_total", l));
  auto& injector = fault::Injector::instance();
  site_malformed_ = injector.site(kSiteMalformed);
  site_out_of_order_ = injector.site(kSiteOutOfOrder);
  site_duplicate_ = injector.site(kSiteDuplicate);
  site_storm_ = injector.site(kSiteStorm);
  site_op_fault_ = injector.site(kSiteOpFault);
}

SessionId SessionManager::add(std::unique_ptr<core::StreamSession> session,
                              const ManagedSessionConfig& config) {
  if (!session) {
    throw Error(ErrorCode::InvalidArgument, "SessionManager::add: null session");
  }
  if (admission_level() == fault::DegradationLevel::RejectAdmits) {
    throw Error(ErrorCode::AdmissionRejected,
                "SessionManager::add: overload ladder at RejectAdmits");
  }
  if (config.queue_capacity < 1) {
    throw Error(ErrorCode::InvalidArgument,
                "SessionManager::add: queue_capacity must be >= 1");
  }
  auto slot = std::make_unique<Slot>(std::move(session), config);
  const auto id = static_cast<SessionId>(slots_.size());
  slot->bucket.configure(config.rate_limit_eps, config.rate_limit_burst);
  if (admission_.enabled) {
    slot->noise_gate = std::make_unique<fault::NoiseGate>();
  }
  if (config.checkpoint_every > 0) {
    // Initial checkpoint: a fault is recoverable from the very first op
    // (worst case, back to the fresh-session state). Sessions that decline
    // save_state() simply run without restore.
    std::vector<std::uint8_t> buf;
    if (slot->session->save_state(buf)) {
      slot->checkpointing = true;
      slot->checkpoint = std::move(buf);
      slot->checkpoint_last_feed_t = slot->last_feed_t;
      ++slot->faults.checkpoints;
    }
  }
  capacity_total_ += config.queue_capacity;
  slots_.push_back(std::move(slot));
  ready_.push_back(0);
  return id;
}

SessionManager::Slot& SessionManager::slot(SessionId id) {
  if (id < 0 || id >= session_count()) {
    throw Error(ErrorCode::InvalidSessionId,
                "SessionManager: session id " + std::to_string(id) +
                    " out of range [0, " + std::to_string(session_count()) +
                    ")");
  }
  return *slots_[static_cast<size_t>(id)];
}

const SessionManager::Slot& SessionManager::slot(SessionId id) const {
  return const_cast<SessionManager*>(this)->slot(id);
}

void SessionManager::set_admission(const fault::AdmissionConfig& config) {
  admission_ = config;
  if (!admission_.enabled) return;
  // Gates are made here and in add(), never on submit, so admit() stays
  // allocation-free.
  for (const auto& sl : slots_) {
    if (sl->state != SessionState::Retired && !sl->noise_gate) {
      sl->noise_gate = std::make_unique<fault::NoiseGate>();
    }
  }
}

double SessionManager::occupancy() const noexcept {
  if (capacity_total_ <= 0) return 0.0;
  const double queued =
      static_cast<double>(queued_ops_.load(std::memory_order_relaxed));
  const double occ = queued / static_cast<double>(capacity_total_);
  return occ < 0.0 ? 0.0 : (occ > 1.0 ? 1.0 : occ);
}

fault::DegradationLevel SessionManager::admission_level() const noexcept {
  // Off, the ladder is Nominal whatever the occupancy: skip reading it.
  if (!admission_.enabled) return fault::DegradationLevel::Nominal;
  return fault::degradation_level(admission_, occupancy());
}

bool SessionManager::push_op(SessionId id, Slot& s, const StreamOp& op) {
  // Occupancy tracks queue *size*, which push() may not grow (DropNewest
  // rejection, DropOldest eviction) — charge the delta, not the attempt.
  const Index before = s.queue.size();
  const bool ok = s.queue.push(op);
  queued_ops_.fetch_add(s.queue.size() - before, std::memory_order_relaxed);
  // A refused push leaves a full queue, so the flag is set whenever ops
  // wait, whatever the overflow policy did.
  if (!s.queue.empty()) ready_[static_cast<size_t>(id)] = 1;
  return ok;
}

bool SessionManager::admit(SessionId id, Slot& s, StreamOp op) {
  if (s.state != SessionState::Active) {
    // Retired slots keep the charge on the manager (their own ledgers were
    // handed out at retire()); quarantined slots keep it on the slot.
    if (s.state == SessionState::Retired) {
      ++rejected_retired_;
    } else {
      ++s.shed.rejected_faulted;
    }
    return false;
  }
  const bool is_feed = op.kind == StreamOp::Kind::Feed;
  // Ingress corruption sites: model a degraded sensor / transport by
  // mutating the op before any admission logic sees it.
  if (is_feed) {
    if (site_malformed_.fire(id) == fault::FaultKind::MalformedEvent) {
      op = StreamOp::feed(
          fault::corrupt_malformed(op.event(), site_malformed_.plan().seed));
    }
    if (site_out_of_order_.fire(id) == fault::FaultKind::OutOfOrderEvent) {
      op = StreamOp::feed(fault::corrupt_out_of_order(
          op.event(), site_out_of_order_.plan().time_skew_us));
    }
  }
  // Per-session token bucket, refilled from stream time — deterministic.
  if (is_feed && s.config.rate_limit_eps > 0.0 && !s.bucket.take(op.t)) {
    ++s.shed.rate_limited;
    return false;
  }
  // Global overload ladder (Nominal unless set_admission enabled it).
  const fault::DegradationLevel level = admission_level();
  if (is_feed && level == fault::DegradationLevel::RejectAdmits) {
    ++s.shed.rejected_overload;
    return false;  // Advances still flow: sessions can close windows.
  }
  if (is_feed && admission_.enabled) {
    // The gate warms on every admitted feed so by the time the DropNoise
    // rung engages it has a live activity map to classify against. Every
    // live slot has one while admission is enabled (add, set_admission).
    const bool supported =
        s.noise_gate->observe(op.event(), fault::kNoiseSupportWindowUs);
    if (level >= fault::DegradationLevel::DropNoise &&
        s.config.priority <= fault::kShedPriorityMax && !supported) {
      ++s.shed.shed_noise;
      return false;
    }
  }
  // Latency sampling is the first thing the ladder sheds: past ShedSampling
  // no op is stamped, so pump() pays zero clock reads for this session.
  if (level < fault::DegradationLevel::ShedSampling && obs::enabled() &&
      (s.queue.stats().pushed & (kLatencySampleEvery - 1)) == 0) {
    op.enqueue_ns = obs::Tracer::now_ns();
  }
  // Queue-pressure sites: a duplicate enqueues the op twice, a storm
  // enqueues a burst of copies ahead of it (overflow-policy stress).
  if (site_duplicate_.fire(id) == fault::FaultKind::DuplicateEvent) {
    push_op(id, s, op);
  }
  if (site_storm_.fire(id) == fault::FaultKind::OverflowStorm) {
    const Index extra = site_storm_.plan().storm_extra;
    for (Index i = 0; i < extra; ++i) push_op(id, s, op);
  }
  return push_op(id, s, op);
}

bool SessionManager::submit(SessionId id, const events::Event& event) {
  return admit(id, slot(id), StreamOp::feed(event));
}

bool SessionManager::submit_advance(SessionId id, TimeUs t) {
  return admit(id, slot(id), StreamOp::advance(t));
}

void SessionManager::apply_op(SessionId id, Slot& s, const StreamOp& op) {
  switch (site_op_fault_.fire(id)) {
    case fault::FaultKind::SessionThrow:
      throw Error(ErrorCode::InjectedFault,
                  "injected op fault (session " + std::to_string(id) + ")");
    case fault::FaultKind::ArenaExhaustion:
      throw std::bad_alloc();
    default:
      break;
  }
  if (op.kind == StreamOp::Kind::Feed) {
    const events::Event e = op.event();
    if (s.config.validate_width > 0 &&
        (e.x < 0 || e.x >= s.config.validate_width || e.y < 0 ||
         (s.config.validate_height > 0 && e.y >= s.config.validate_height))) {
      throw Error(ErrorCode::MalformedEvent,
                  "event (" + std::to_string(e.x) + "," + std::to_string(e.y) +
                      ") outside " + std::to_string(s.config.validate_width) +
                      "x" + std::to_string(s.config.validate_height));
    }
    if (s.config.validate_monotone_time && e.t < s.last_feed_t) {
      throw Error(ErrorCode::OutOfOrderEvent,
                  "event t=" + std::to_string(e.t) + " regresses below " +
                      std::to_string(s.last_feed_t));
    }
    s.session->feed(e);
    if (e.t > s.last_feed_t) s.last_feed_t = e.t;
  } else {
    s.session->advance_to(op.t);
  }
}

bool SessionManager::take_checkpoint(Slot& s) {
  if (!s.checkpointing) return false;
  std::vector<std::uint8_t> buf;
  if (!s.session->save_state(buf)) return false;
  s.checkpoint = std::move(buf);
  s.checkpoint_last_feed_t = s.last_feed_t;
  s.replay_log.clear();
  s.ops_since_checkpoint = 0;
  ++s.faults.checkpoints;
  return true;
}

void SessionManager::note_applied(Slot& s, const StreamOp& op) {
  if (!s.checkpointing) return;
  StreamOp logged = op;
  logged.enqueue_ns = 0;  // replay never re-measures latency
  s.replay_log.push_back(logged);
  ++s.ops_since_checkpoint;
  if (s.ops_since_checkpoint >= s.config.checkpoint_every) {
    try {
      take_checkpoint(s);
    } catch (const std::exception&) {
      // A checkpoint that cannot be taken (e.g. CheckpointTooLarge) stops
      // checkpointing for this session rather than growing the replay log
      // without bound; the session keeps serving, restore just degrades to
      // quarantine on the next fault.
      s.checkpointing = false;
      s.checkpoint.clear();
      s.replay_log.clear();
      s.ops_since_checkpoint = 0;
    }
  }
}

bool SessionManager::recover(SessionId id, Slot& s, const StreamOp& op) {
  if (!s.checkpointing || !s.config.restore_on_fault || s.checkpoint.empty()) {
    return false;
  }
  try {
    if (!s.session->load_state(s.checkpoint)) return false;
    s.last_feed_t = s.checkpoint_last_feed_t;
    // Replay the ops applied since the checkpoint, then retry the faulting
    // op. Injected faults with bounded max_fires have already spent their
    // firing budget, so the retry passes; a deterministic fault (validation
    // trip, genuine pipeline bug) rethrows and the caller quarantines.
    for (const StreamOp& logged : s.replay_log) apply_op(id, s, logged);
    apply_op(id, s, op);
    note_applied(s, op);
    ++s.faults.restores;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

void SessionManager::quarantine(SessionId id, Slot& s, const char* why) {
  s.state = SessionState::Faulted;
  s.fault_message = why;
  // The faulting op was already popped; its backlog follows it into loss
  // accounting so the queue ledger stays consistent.
  const Index backlog = s.queue.drain_to_loss();
  ready_[static_cast<size_t>(id)] = 0;
  queued_ops_.fetch_sub(backlog, std::memory_order_relaxed);
  s.faults.quarantine_dropped += backlog + 1;
}

Index SessionManager::pump_session(Index i, Index burst,
                                   const char* span_name) {
  Slot& s = *slots_[static_cast<size_t>(i)];
  if (s.state != SessionState::Active) return 0;
  Index done = 0;
  StreamOp op;
  // The span + latency instruments never touch the op stream, so the
  // decision sequence is identical with observability on or off (the
  // runtime.obs_on_vs_off oracle holds this bitwise). Only sampled ops
  // (enqueue_ns stamped at submit) and sampled visits pay for clock reads
  // here; the rest cross a branch.
  thread_local obs::SpanSite visit_site;
  std::optional<obs::Span> span;
  if (obs::enabled() && !s.queue.empty()) {
    span.emplace(span_name, visit_site);
  }
  // The try/catch lives *inside* the per-session loop: a fault in session i
  // recovers or quarantines i on the owning worker and never unwinds
  // through the parallel region, so neighbors are untouched (the
  // runtime.fault_isolation oracle holds this bitwise).
  while (done < burst && s.queue.pop(op)) {
    try {
      if (op.enqueue_ns > 0) {
        const std::int64_t before = s.session->stats().decisions_emitted;
        apply_op(i, s, op);
        if (s.session->stats().decisions_emitted > before) {
          latency_.record((obs::Tracer::now_ns() - op.enqueue_ns) / 1000);
        }
      } else {
        apply_op(i, s, op);
      }
      note_applied(s, op);
    } catch (const std::exception& e) {
      ++s.faults.faults;
      if (!recover(i, s, op)) {
        quarantine(i, s, e.what());
        ++done;
        break;
      }
    }
    ++done;
  }
  // Only this worker writes the flag while the round runs: a visit that
  // leaves the queue empty takes the session out of the pump's scan.
  if (s.queue.empty()) ready_[static_cast<size_t>(i)] = 0;
  return done;
}

Index SessionManager::pump() {
  const Index n = session_count();
  if (n == 0) return 0;
  const fault::DegradationLevel level = admission_level();
  if (admission_.enabled) {
    overload_gauge_.set(static_cast<double>(level));
  }
  Index coarsen = 1;
  if (level >= fault::DegradationLevel::CoarsenBursts) {
    // Coarser bursts amortise scheduling under pressure. Per-session op
    // order is untouched, so every decision stream is unchanged — this rung
    // trades interleaving fairness, not output.
    coarsen = admission_.coarsen_factor < 1 ? 1 : admission_.coarsen_factor;
    ++coarsened_rounds_;
  }
  // No installed plan, or one that add() made stale: pump the cached
  // round-robin default instead.
  const bool planned = plan_ != nullptr && plan_->session_count == n;
  const sched::Plan& plan = planned ? *plan_ : default_plan(n);
  // Grain 1 over *regions*: region r is chunk r, one worker per region per
  // round. Plan::validate() guarantees each session sits in exactly one
  // region, so no session is ever touched by two workers, and the plan
  // chooses the partition, visit order and burst. validate() bounds the
  // burst by kMaxPlanBurst, so no installed plan overflows it here.
  const auto nregions = static_cast<Index>(plan.regions.size());
  const Index burst = plan.burst * coarsen;
  // Span names are literals: the tracer keeps the pointer until a later
  // collect(), which may come after this plan, or this manager, is gone.
  const char* const span_name =
      planned ? "sched.region" : "runtime.session_burst";
  const Index total = par::parallel_reduce(
      0, nregions, 1, Index{0},
      [&](Index r, Index) {
        const sched::PlanRegion& region = plan.regions[static_cast<size_t>(r)];
        Index ops = 0;
        for (const Index s : region.sessions) {
          if (ready_[static_cast<size_t>(s)] == 0) continue;
          ops += pump_session(s, burst, span_name);
        }
        return ops;
      },
      std::plus<Index>());
  // pump_session counts every op it popped, the faulting one included, so
  // one subtraction on this thread settles the round's occupancy ledger.
  queued_ops_.fetch_sub(total, std::memory_order_relaxed);
  if (planned) planned_rounds_.add(1);
  ops_processed_.add(total);
  pump_rounds_.add(1);
  return total;
}

const sched::Plan& SessionManager::default_plan(Index n) {
  // Inside a parallel region (a shard worker pumping this manager) the
  // region loop runs serially on this thread, and par::thread_count()
  // would wait on the pool lock the enclosing region holds: deal one
  // region, which visits sessions in id order.
  const Index workers =
      par::in_parallel_region() ? 1 : par::thread_count();
  if (default_plan_.session_count != n || default_plan_workers_ != workers) {
    // Session s in region s % W: the grain-1 region loop hands worker w
    // sessions w, w+W, ... at the manager's burst.
    default_plan_ = sched::Plan::round_robin(n, workers, burst_);
    default_plan_workers_ = workers;
  }
  return default_plan_;
}

void SessionManager::pump_all() {
  while (pump() > 0) {
  }
}

void SessionManager::set_plan(sched::Plan plan) {
  if (std::string why; !plan.validate(&why)) {
    throw Error(ErrorCode::InvalidArgument,
                "SessionManager::set_plan: invalid plan: " + why);
  }
  if (plan.session_count != session_count()) {
    throw Error(ErrorCode::InvalidArgument,
                "SessionManager::set_plan: plan covers " +
                    std::to_string(plan.session_count) + " sessions, manager " +
                    "has " + std::to_string(session_count()));
  }
  plan.serialize(plan_bytes_);
  plan_ = std::make_unique<sched::Plan>(std::move(plan));
  // Every validation has passed: routing is the last step, so a rejected
  // plan can never leave sessions half-routed.
  apply_routes();
}

void SessionManager::clear_plan() noexcept {
  plan_.reset();
  plan_bytes_.clear();
  apply_routes();  // back to every paradigm's Default path
}

void SessionManager::apply_routes() noexcept {
  for (const auto& sl : slots_) {
    if (!sl->session) continue;  // retired (migrated-out) tombstone
    route::PathId path = route::PathId::Default;
    if (plan_ != nullptr) {
      const std::string_view paradigm = sl->session->paradigm();
      for (const sched::ParadigmPlacement& p : plan_->placements) {
        if (p.paradigm == paradigm) {
          path = p.path;
          break;
        }
      }
    }
    // validate() pinned each placed path to its paradigm, so the session
    // accepts it.
    (void)sl->session->set_execution_path(path);
  }
}

const sched::Plan& SessionManager::plan() const {
  if (!plan_) {
    throw Error(ErrorCode::InvalidArgument,
                "SessionManager::plan: no plan installed");
  }
  return *plan_;
}

void SessionManager::install_plan_bytes(std::span<const std::uint8_t> bytes) {
  set_plan(sched::Plan::deserialize(bytes));
}

bool SessionManager::restore(SessionId id) {
  Slot& s = slot(id);
  if (s.state == SessionState::Retired) return false;  // moved, not faulted
  if (s.state == SessionState::Active) return true;
  if (!s.checkpointing || s.checkpoint.empty()) return false;
  if (!s.session->load_state(s.checkpoint)) return false;
  s.last_feed_t = s.checkpoint_last_feed_t;
  for (const StreamOp& logged : s.replay_log) apply_op(id, s, logged);
  s.state = SessionState::Active;
  s.fault_message.clear();
  ++s.faults.restores;
  return true;
}

bool SessionManager::checkpoint_now(SessionId id) {
  return take_checkpoint(slot(id));
}

SessionManager::AggregateStats SessionManager::retire(SessionId id) {
  Slot& s = slot(id);
  if (s.state == SessionState::Retired) {
    throw Error(ErrorCode::InvalidSessionId,
                "SessionManager::retire: session " + std::to_string(id) +
                    " is already retired");
  }
  // Unflushed backlog follows the slot into the queue's loss ledger — the
  // caller (migration) is expected to have flushed, but an unflushed retire
  // must still conserve every op somewhere visible.
  const Index backlog = s.queue.drain_to_loss();
  ready_[static_cast<size_t>(id)] = 0;
  queued_ops_.fetch_sub(backlog, std::memory_order_relaxed);
  const AggregateStats ledger = ledger_of(s);
  s.state = SessionState::Retired;
  s.session.reset();
  s.noise_gate.reset();
  s.fault_message.clear();
  s.checkpointing = false;
  s.checkpoint.clear();
  s.replay_log.clear();
  s.ops_since_checkpoint = 0;
  // Zero the slot ledgers: their story now lives in the returned ledger
  // (and stats() skips the tombstone anyway).
  s.shed = {};
  s.faults = {};
  // The tombstone's queue stops counting toward occupancy, so the overload
  // ladder keeps seeing real capacity.
  capacity_total_ -= s.config.queue_capacity;
  return ledger;
}

SessionManager::AggregateStats& SessionManager::AggregateStats::operator+=(
    const AggregateStats& o) {
  totals += o.totals;
  queues.pushed += o.queues.pushed;
  queues.dropped += o.queues.dropped;
  queues.popped += o.queues.popped;
  shedding.rate_limited += o.shedding.rate_limited;
  shedding.shed_noise += o.shedding.shed_noise;
  shedding.rejected_overload += o.shedding.rejected_overload;
  shedding.rejected_faulted += o.shedding.rejected_faulted;
  shedding.coarsened_rounds += o.shedding.coarsened_rounds;
  faults.faults += o.faults.faults;
  faults.restores += o.faults.restores;
  faults.checkpoints += o.faults.checkpoints;
  faults.quarantine_dropped += o.faults.quarantine_dropped;
  faults.quarantined_sessions += o.faults.quarantined_sessions;
  sessions += o.sessions;
  return *this;
}

SessionManager::AggregateStats SessionManager::ledger_of(const Slot& s) {
  AggregateStats ledger;
  ledger.queues = s.queue.stats();
  ledger.shedding = s.shed;
  ledger.faults = s.faults;
  // The queue and the admission gates sit in front of the session, so their
  // losses are part of the session's story even though the session never
  // saw those ops.
  ledger.totals.events_dropped =
      s.queue.stats().dropped + s.shed.rate_limited + s.shed.shed_noise +
      s.shed.rejected_overload + s.shed.rejected_faulted +
      s.faults.quarantine_dropped;
  return ledger;
}

core::SessionStats SessionManager::stats(SessionId id) const {
  const Slot& s = slot(id);
  // A retired slot's contribution left with retire()'s ledger; reporting it
  // here too would double-count across a migration.
  if (s.state == SessionState::Retired) return {};
  core::SessionStats stats = s.session->stats();
  stats.events_dropped += ledger_of(s).totals.events_dropped;
  return stats;
}

SessionManager::AggregateStats SessionManager::stats() const {
  AggregateStats agg;
  agg.shedding.coarsened_rounds = coarsened_rounds_;
  agg.shedding.rejected_faulted = rejected_retired_;
  for (SessionId id = 0; id < session_count(); ++id) {
    const Slot& sl = *slots_[static_cast<size_t>(id)];
    if (sl.state == SessionState::Retired) continue;  // ledger moved out
    AggregateStats one = ledger_of(sl);
    one.totals = stats(id);  // the session's own counters, losses folded in
    one.sessions = 1;
    one.faults.quarantined_sessions = sl.state == SessionState::Faulted;
    agg += one;
  }
  return agg;
}

void SessionManager::export_metrics(obs::MetricsSnapshot& out,
                                    const AggregateStats& retired) const {
  AggregateStats ledger = stats();
  ledger += retired;
  const SheddingStats& shed = ledger.shedding;
  const auto add = [&](const char* name, std::int64_t value) {
    out.add_counter(labelled(name, instrument_label_), value);
  };
  add("evd_queue_ops_dropped_total", ledger.queues.dropped);
  add("evd_admission_shed_total", shed.rate_limited + shed.shed_noise +
                                      shed.rejected_overload +
                                      shed.rejected_faulted);
  add("evd_fault_session_faults_total", ledger.faults.faults);
  add("evd_fault_restores_total", ledger.faults.restores);
  out.add_gauge(labelled("evd_sessions_active", instrument_label_),
                static_cast<double>(ledger.sessions));
  // Session counters travel in a migrated session's checkpoint, so their
  // sum over live sessions never drops when a session changes managers.
  std::vector<std::pair<std::string_view, core::SessionStats>> by_paradigm;
  for (const auto& sl : slots_) {
    if (sl->state == SessionState::Retired) continue;
    const std::string_view p = sl->session->paradigm();
    auto it = std::find_if(by_paradigm.begin(), by_paradigm.end(),
                           [&](const auto& e) { return e.first == p; });
    if (it == by_paradigm.end()) it = by_paradigm.insert(it, {p, {}});
    it->second += sl->session->stats();
  }
  for (const auto& [p, s] : by_paradigm) {
    const std::string label = "{paradigm=\"" + std::string(p) + "\"}";
    out.add_counter("evd_events_fed_total" + label, s.events_fed);
    out.add_counter("evd_decisions_emitted_total" + label,
                    s.decisions_emitted);
    out.add_counter("evd_sink_decisions_dropped_total" + label,
                    s.decisions_dropped);
  }
}

}  // namespace evd::runtime
