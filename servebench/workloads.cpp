#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <type_traits>

#include "check/oracles.hpp"
#include "cnn/cnn_pipeline.hpp"
#include "cnn/representation.hpp"
#include "common/parallel.hpp"
#include "gnn/graph_builder.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "harness.hpp"
#include "nn/conv2d.hpp"
#include "nn/softmax.hpp"
#include "obs/obs.hpp"
#include "route/route.hpp"
#include "runtime/session_manager.hpp"
#include "sched/cost.hpp"
#include "sched/planner.hpp"
#include "shard/shard_manager.hpp"
#include "snn/snn_pipeline.hpp"

namespace servebench {
namespace {

using namespace evd;

// ---- workloads --------------------------------------------------------------

enum class Paradigm { Cnn, Snn, Gnn };

const char* paradigm_name(Paradigm p) {
  switch (p) {
    case Paradigm::Cnn:
      return "cnn";
    case Paradigm::Snn:
      return "snn";
    default:
      return "gnn";
  }
}

constexpr TimeUs kHeartbeatUs = 1000;  ///< Advance cadence, clocked sessions.
constexpr TimeUs kCnnFrameUs = 50000;  ///< CNN frame period (20 fps).
constexpr TimeUs kPhaseQuantumUs = kCnnFrameUs;  ///< Phases hold whole frames.
// Set-up is repeated and its median reported: at least kMinSetups times,
// and until kSetupBudgetS of set-up has been timed (at most kMaxSetups).
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.0;
constexpr Index kManagerBurst = 256;  ///< SessionManager default burst.
constexpr Index kProfileQueuedOps = kManagerBurst;
constexpr Index kTenants = 10000;
constexpr Index kTenantGeometry = 16;
constexpr Index kTenantQueue = 512;
constexpr Index kShards = 4;
constexpr double kScrapePeriodS = 0.5;

struct WorkloadDef {
  const char* name;
  /// Fixed offered rate of the paced phase (events/s), also the tapes'
  /// event density.
  double offered_eps;
  /// Events of the saturating phase per run-second: about a quarter of a
  /// run at the throughput of a 4-core x86-64 host with AVX2.
  double saturate_events_per_s;
  std::vector<Paradigm> sessions;
  /// Share of the offered rate per paradigm (summing to 1 over those present).
  double share_cnn, share_snn, share_gnn;
  Index patch;  ///< Events stay inside [0, patch)^2.
  bool sharded;
  Index checkpoint_every;
  bool scrape;
};

std::vector<Paradigm> repeat(std::initializer_list<Paradigm> pattern,
                             Index count) {
  std::vector<Paradigm> out;
  while (static_cast<Index>(out.size()) < count) {
    for (Paradigm p : pattern) {
      if (static_cast<Index>(out.size()) < count) out.push_back(p);
    }
  }
  return out;
}

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      // SNN events are cheap, so they make most of the mixed_dense tape: that
      // keeps each paradigm above a fifth of the direct-feed compute.
      {"mixed_dense", 138000.0, 800000.0,
       repeat({Paradigm::Cnn, Paradigm::Snn, Paradigm::Gnn}, 12), 0.116, 0.871,
       0.013, 32, false, 2048, false},
      {"sparse_corner", 200000.0, 1200000.0,
       repeat({Paradigm::Cnn, Paradigm::Snn}, 8), 0.5, 0.5, 0.0, 8, false, 0,
       false},
      {"tenant_zipf", 150000.0, 400000.0, repeat({Paradigm::Gnn}, kTenants),
       0.0, 0.0, 1.0, kTenantGeometry, true, 0, true},
  };
  return defs;
}

const WorkloadDef& find_workload(const std::string& name) {
  for (const WorkloadDef& w : workload_defs()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Index sensor_side(const WorkloadDef& w) {
  return w.sharded ? kTenantGeometry : 32;
}

double activity(const WorkloadDef& w) {
  const double side = static_cast<double>(sensor_side(w));
  return static_cast<double>(w.patch * w.patch) / (side * side);
}

TimeUs whole_frames(double seconds) {
  const auto us = static_cast<TimeUs>(seconds * 1e6);
  return std::max<TimeUs>(kPhaseQuantumUs,
                          (us + kPhaseQuantumUs - 1) / kPhaseQuantumUs *
                              kPhaseQuantumUs);
}

/// One tape at the offered density, two cycles per run-second: each a
/// saturating stretch sized in events, then 0.3 s of paced stretch (0.6 s per
/// run-second), served in real time.
Tape make_tape(const WorkloadDef& w, std::uint64_t seed, double seconds) {
  Layout layout;
  layout.cycles = std::max(1, static_cast<int>(std::lround(2.0 * seconds)));
  const double cycles = static_cast<double>(layout.cycles);
  layout.saturate_us = whole_frames(w.saturate_events_per_s * seconds /
                                    cycles / w.offered_eps);
  layout.paced_us = whole_frames(0.6 * seconds / cycles);
  const std::uint64_t tape_seed =
      seed * 0x9E3779B97F4A7C15ULL ^ std::hash<std::string>{}(w.name);
  if (w.sharded) {
    MmppConfig mc;
    mc.tenants = kTenants;
    mc.mean_rate_eps = w.offered_eps;
    mc.geometry = kTenantGeometry;
    return mmpp_tape(tape_seed, mc, layout);
  }
  Index counts[3] = {0, 0, 0};
  for (Paradigm p : w.sessions) ++counts[static_cast<int>(p)];
  const double shares[3] = {w.share_cnn, w.share_snn, w.share_gnn};
  std::vector<PoissonSource> sources;
  for (Paradigm p : w.sessions) {
    const int k = static_cast<int>(p);
    PoissonSource src;
    src.rate_eps =
        w.offered_eps * shares[k] / static_cast<double>(counts[k]);
    src.patch = w.patch;
    src.heartbeat_us = p == Paradigm::Gnn ? 0 : kHeartbeatUs;
    sources.push_back(src);
  }
  return poisson_tape(tape_seed, sources, layout);
}

cnn::CnnPipelineConfig cnn_config() {
  cnn::CnnPipelineConfig c;
  c.width = 32;
  c.height = 32;
  c.num_classes = 2;
  c.base_filters = 4;
  c.frame_period_us = kCnnFrameUs;
  return c;
}

snn::SnnPipelineConfig snn_config() {
  snn::SnnPipelineConfig c;
  c.width = 32;
  c.height = 32;
  c.num_classes = 2;
  c.hidden = 64;
  c.timestep_us = 5000;
  return c;
}

/// Every event inserts (stride 1) and runs the message pass at hidden 32.
gnn::GnnPipelineConfig gnn_dense_config() {
  gnn::GnnPipelineConfig c;
  c.width = 32;
  c.height = 32;
  c.num_classes = 2;
  c.model.hidden = 32;
  c.model.layers = 2;
  c.stream_stride = 1;
  c.stream_max_nodes = 2048;
  return c;
}

/// Light tenants: hidden 8, a decision every 4th event, graphs recycled at
/// 64 nodes, short decision tails (the driver drains after every pump).
gnn::GnnPipelineConfig gnn_tenant_config() {
  gnn::GnnPipelineConfig c;
  c.width = kTenantGeometry;
  c.height = kTenantGeometry;
  c.num_classes = 2;
  c.model.hidden = 8;
  c.model.layers = 2;
  c.stream_stride = 4;
  c.stream_max_nodes = 64;
  c.decision_retain = 256;
  return c;
}

// ---- serving front ends -----------------------------------------------------

struct ServerTotals {
  std::int64_t events_dropped = 0;  ///< Ledger: queue / ring / session loss.
  std::int64_t ops_popped = 0;
  std::int64_t decisions_dropped = 0;
  std::int64_t checkpoints = 0;
  std::int64_t faults = 0;
};

/// The loss and fault ledgers of either manager.
template <typename Manager>
ServerTotals totals_of(const Manager& m) {
  const auto a = m.stats();
  return {a.totals.events_dropped, a.queues.popped, a.totals.decisions_dropped,
          a.faults.checkpoints, a.faults.faults};
}

/// The workload's pipelines. Their weights come from seeded initialisation,
/// so every set built for one workload serves the same models.
struct Pipelines {
  std::unique_ptr<cnn::CnnPipeline> cnn;
  std::unique_ptr<snn::SnnPipeline> snn;
  std::unique_ptr<gnn::GnnPipeline> gnn;
  Index side = 32;

  explicit Pipelines(const WorkloadDef& w) : side(sensor_side(w)) {
    const auto uses = [&w](Paradigm p) {
      return std::find(w.sessions.begin(), w.sessions.end(), p) !=
             w.sessions.end();
    };
    if (uses(Paradigm::Cnn)) {
      cnn = std::make_unique<cnn::CnnPipeline>(cnn_config());
    }
    if (uses(Paradigm::Snn)) {
      snn = std::make_unique<snn::SnnPipeline>(snn_config());
    }
    if (uses(Paradigm::Gnn)) {
      gnn = std::make_unique<gnn::GnnPipeline>(
          w.sharded ? gnn_tenant_config() : gnn_dense_config());
    }
  }

  std::unique_ptr<core::StreamSession> open(Paradigm p) const {
    switch (p) {
      case Paradigm::Cnn:
        return cnn->open_session(side, side);
      case Paradigm::Snn:
        return snn->open_session(side, side);
      default:
        return gnn->open_session(side, side);
    }
  }

  const core::EventPipeline& pipeline(Paradigm p) const {
    switch (p) {
      case Paradigm::Cnn:
        return *cnn;
      case Paradigm::Snn:
        return *snn;
      default:
        return *gnn;
    }
  }
};

// ---- deployment (what setup_s times) ----------------------------------------

/// The served workload: its pipelines and one of the two managers.
struct Deployment {
  explicit Deployment(const WorkloadDef& w) : pipelines(w) {}

  Pipelines pipelines;
  std::unique_ptr<runtime::SessionManager> manager;
  std::unique_ptr<shard::ShardManager> sharded;
  std::vector<sched::SessionProfile> profiles;
  sched::Plan plan;
  bool planned = false;
  Index queue_capacity = 0;

  core::StreamSession& session(Index s) {
    return sharded ? sharded->session(s) : manager->session(s);
  }
  ServerTotals totals() const {
    return sharded ? totals_of(*sharded) : totals_of(*manager);
  }
};

/// Construct pipelines, open and add every session, plan and install the
/// plan (SessionManager workloads), register the oracles that entitle the
/// planner's routes.
std::unique_ptr<Deployment> deploy(const WorkloadDef& w, SpanLog* spans) {
  auto d = std::make_unique<Deployment>(w);
  check::register_builtin_oracles();

  runtime::ManagedSessionConfig mc;
  mc.checkpoint_every = w.checkpoint_every;
  if (w.sharded) {
    mc.queue_capacity = kTenantQueue;
    shard::ShardManagerConfig sc;
    sc.shards = kShards;
    d->sharded = std::make_unique<shard::ShardManager>(sc);
    gnn::GnnPipeline* pipeline = d->pipelines.gnn.get();
    const Index side = d->pipelines.side;
    for (std::size_t s = 0; s < w.sessions.size(); ++s) {
      d->sharded->add(
          [pipeline, side] { return pipeline->open_session(side, side); }, mc);
    }
  } else {
    d->manager = std::make_unique<runtime::SessionManager>();
    for (Paradigm p : w.sessions) d->manager->add(d->pipelines.open(p), mc);
    for (Paradigm p : w.sessions) {
      d->profiles.push_back(
          sched::profile_for(d->pipelines.pipeline(p), paradigm_name(p),
                             kProfileQueuedOps, activity(w)));
    }
    // Plan for the live pool, with visits as long as the manager's own burst.
    sched::AnnealerConfig ac;
    ac.region_count = par::thread_count();
    ac.burst_cap = kManagerBurst;
    {
      ScopedSpan span(spans, SpanKind::PlanFor);
      d->plan = sched::Planner::instance().plan_for(d->profiles, ac);
    }
    {
      ScopedSpan span(spans, SpanKind::SetPlan);
      d->manager->set_plan(d->plan);
    }
    d->planned = true;
  }
  d->queue_capacity = mc.queue_capacity;
  return d;
}

// ---- the open-loop driver ---------------------------------------------------

/// One drained decision of the paced phase.
struct Sample {
  double us = 0.0;  ///< Drain time - due time.
  int window = 0;   ///< Paced segment it was due in.
  Paradigm paradigm = Paradigm::Cnn;
};

/// Reserve room for `n` elements and fault its pages in, so that filling the
/// vector later does not grow the resident set.
template <typename T>
void reserve_resident(std::vector<T>& v, std::size_t n) {
  v.resize(n);
  v.clear();  // keeps the capacity, whose pages stay resident
}

/// What serving records. It is sized from the reference streams and faulted
/// in before serving starts, so recording adds nothing to the resident set
/// that peak_rss_mb charges to the program.
struct Record {
  std::vector<std::vector<core::Decision>> served;  ///< Per session.
  std::vector<Sample> samples;
  std::vector<double> lag_us;  ///< Generator lateness per paced op.
};

/// The driver's own counts, for the per-layer ledger.
struct DriverCounts {
  std::int64_t pumps = 0;
  std::int64_t ops_pumped = 0;
  std::int64_t backlog_sum = 0;  ///< Σ queued over touched sessions, per pump.
  std::int64_t refusals = 0;     ///< Refused submits, retried after a pump.
  std::int64_t room_waits = 0;   ///< Pumps forced by a full session queue.
  std::int64_t decisions = 0;
  std::int64_t scrapes = 0;
  std::int64_t scrape_ns = 0;
};

/// One thread alternates submitting due ops with pump() on either manager,
/// and after each pump drains only the sessions touched since their last
/// drain.
template <typename Manager>
class Driver {
 public:
  Driver(Manager& m, Index queue_capacity,
         const std::vector<Paradigm>& paradigms, bool scrape, SpanLog* spans,
         Record& record)
      : m_(m),
        paradigms_(paradigms),
        capacity_(queue_capacity),
        ring_(ring_buffered(m)),
        scrape_(scrape),
        spans_(spans),
        record_(record),
        dirty_(paradigms.size(), 0),
        since_pump_(paradigms.size(), 0) {}

  /// Submit a segment's ops as fast as the queues accept them, then pump to
  /// empty. Returns the wall time in seconds.
  double saturate(const Tape& tape, const Segment& seg) {
    paced_ = false;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = seg.begin; i < seg.end; ++i) submit(tape.ops[i]);
    while (service() > 0) {
    }
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  /// Open loop at the tape's own rate: the segment's ops fall due in real
  /// time from now on, and each decision's latency is filed under `window`.
  /// Returns the wall time in seconds.
  double paced(const Tape& tape, const Segment& seg, int window) {
    paced_ = true;
    schedule_.wall_t0_ns = now_ns();
    schedule_.stream_t0 = seg.t0;
    window_ = window;
    WallClock clock;
    open_loop(
        tape, seg.begin, seg.end, schedule_, clock,
        [this](const TapeOp& op) { submit(op); }, [this] { return service(); },
        record_.lag_us);
    return static_cast<double>(now_ns() - schedule_.wall_t0_ns) * 1e-9;
  }

  DriverCounts counts;

 private:
  /// Ops a multi-shard manager accepted wait in an ingress ring, where
  /// queued() does not see them, until the next pump moves them.
  static bool ring_buffered([[maybe_unused]] const Manager& m) {
    if constexpr (std::is_same_v<Manager, shard::ShardManager>) {
      return m.shard_count() > 1;
    } else {
      return false;
    }
  }

  bool offer(const TapeOp& op) {
    return op.advance ? m_.submit_advance(op.session, op.t)
                      : m_.submit(op.session, op.event());
  }

  void submit(const TapeOp& op) {
    const auto s = static_cast<std::size_t>(op.session);
    const auto backlog = [&] { return m_.queued(op.session) + since_pump_[s]; };
    if (backlog() >= capacity_) {
      // Full: pump until the queue is half empty, so the workers serve
      // several rounds back to back instead of idling through a refill after
      // every round.
      ++counts.room_waits;
      do {
        service();
      } while (backlog() > capacity_ / 2);
    }
    for (;;) {
      const std::int64_t t0 = spans_ ? now_ns() : 0;
      const bool ok = offer(op);
      if (spans_) spans_->record(SpanKind::Submit, t0, now_ns());
      if (ok) break;
      ++counts.refusals;
      service();
    }
    if (ring_) ++since_pump_[s];
    if (!dirty_[s]) {
      dirty_[s] = 1;
      dirty_list_.push_back(op.session);
    }
  }

  Index service() {
    if (spans_) {
      for (const Index s : dirty_list_) counts.backlog_sum += m_.queued(s);
    }
    const std::int64_t t0 = now_ns();
    const Index n = m_.pump();
    std::int64_t stamp = now_ns();
    if (spans_) spans_->record(SpanKind::Pump, t0, stamp);
    ++counts.pumps;
    counts.ops_pumped += n;
    std::size_t keep = 0;
    for (const Index s : dirty_list_) {
      auto& out = record_.served[static_cast<std::size_t>(s)];
      const std::size_t before = out.size();
      const std::int64_t d0 = stamp;
      m_.drain(s, out);
      stamp = now_ns();
      if (spans_) spans_->record(SpanKind::Drain, d0, stamp);
      counts.decisions += static_cast<std::int64_t>(out.size() - before);
      if (paced_) {
        const Paradigm p = paradigms_[static_cast<std::size_t>(s)];
        for (std::size_t k = before; k < out.size(); ++k) {
          const std::int64_t due = schedule_.due_ns(out[k].t);
          record_.samples.push_back(
              {static_cast<double>(stamp - due) * 1e-3, window_, p});
        }
      }
      since_pump_[static_cast<std::size_t>(s)] = 0;
      if (m_.queued(s) > 0) {
        dirty_list_[keep++] = s;
      } else {
        dirty_[static_cast<std::size_t>(s)] = 0;
      }
    }
    dirty_list_.resize(keep);
    if (scrape_ && stamp - last_scrape_ns_ >=
                       static_cast<std::int64_t>(kScrapePeriodS * 1e9)) {
      scrape();
      const std::int64_t end = now_ns();
      if (spans_) spans_->record(SpanKind::Scrape, stamp, end);
      ++counts.scrapes;
      counts.scrape_ns += end - stamp;
      last_scrape_ns_ = end;
    }
    return n;
  }

  /// What a dashboard reads: the serving stats plus the obs snapshot.
  void scrape() {
    const auto stats = m_.stats();
    const obs::MetricsSnapshot snap = obs::snapshot();
    scrape_sink_ += stats.sessions + static_cast<Index>(snap.counters.size());
  }

  Manager& m_;
  const std::vector<Paradigm>& paradigms_;
  Index capacity_;
  bool ring_;
  bool scrape_;
  SpanLog* spans_;
  Record& record_;
  bool paced_ = false;
  Schedule schedule_;
  std::int64_t last_scrape_ns_ = now_ns();
  Index scrape_sink_ = 0;  ///< Keeps the scrape's reads observable.
  std::vector<char> dirty_;
  std::vector<Index> dirty_list_;
  std::vector<Index> since_pump_;
  int window_ = 0;
};

/// CPU time the hypervisor gave to other guests while this machine's CPUs
/// wanted it (the "steal" column of /proc/stat), summed over its CPUs, in
/// clock ticks; 0 where the kernel does not account it.
std::int64_t host_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::int64_t fields[8] = {};
  stat >> cpu;
  for (std::int64_t& f : fields) stat >> f;
  return stat ? fields[7] : 0;
}

/// CPU time of every thread of this process, in ns. Unlike wall time it
/// leaves out the time the host gave to other guests, and the time a worker
/// slept waiting for a descheduled peer.
std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Served {
  std::vector<double> rates;        ///< Events/s of each saturating segment.
  std::vector<double> cpu_ns_per_event;  ///< CPU ns per event of each.
  std::vector<std::int64_t> saturate_steal;  ///< Host steal ticks of each.
  std::vector<std::int64_t> paced_steal;     ///< ... of each paced segment.
  double saturate_s = 0.0;  ///< Wall time of all saturating segments.
  std::int64_t saturate_events = 0;
  double paced_s = 0.0;
  int windows = 0;  ///< Paced segments served.
  DriverCounts counts;
};

/// Serve the tape's segments in order on one manager. Without `paced` the
/// paced segments are skipped, and the sessions see a gap in stream time
/// instead.
template <typename Manager>
Served serve_on(Manager& m, const Deployment& d, const WorkloadDef& w,
                const Tape& tape, Record& record, SpanLog* spans, bool paced) {
  Driver<Manager> driver(m, d.queue_capacity, w.sessions, w.scrape, spans,
                         record);
  Served out;
  for (const Segment& seg : tape.segments) {
    if (seg.paced && !paced) continue;
    const std::int64_t steal0 = host_steal_ticks();
    if (seg.paced) {
      out.paced_s += driver.paced(tape, seg, out.windows++);
      out.paced_steal.push_back(host_steal_ticks() - steal0);
      continue;
    }
    const std::int64_t events = tape.events(seg.begin, seg.end);
    const std::int64_t cpu0 = process_cpu_ns();
    const double wall = driver.saturate(tape, seg);
    out.cpu_ns_per_event.push_back(
        static_cast<double>(process_cpu_ns() - cpu0) /
        static_cast<double>(events));
    out.saturate_steal.push_back(host_steal_ticks() - steal0);
    out.saturate_s += wall;
    out.saturate_events += events;
    out.rates.push_back(static_cast<double>(events) / wall);
  }
  out.counts = driver.counts;
  return out;
}

/// The segments measured in a quiet stretch: those during which the host
/// stole no CPU time from this machine, or, when fewer than a third were,
/// the third with the least stolen time.
std::vector<char> quiet_segments(const std::vector<std::int64_t>& steal) {
  const std::size_t want = (steal.size() + 2) / 3;
  std::vector<std::int64_t> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const std::int64_t limit =
      want == 0 ? 0 : std::max<std::int64_t>(0, sorted[want - 1]);
  std::vector<char> quiet(steal.size());
  for (std::size_t k = 0; k < steal.size(); ++k) {
    quiet[k] = steal[k] <= limit ? 1 : 0;
  }
  return quiet;
}

/// Median of per-segment values over the segments measured in a quiet
/// stretch.
double quiet_median(const std::vector<double>& values,
                    const std::vector<std::int64_t>& steal) {
  const std::vector<char> quiet = quiet_segments(steal);
  std::vector<double> picked;
  for (std::size_t k = 0; k < quiet.size(); ++k) {
    if (quiet[k]) picked.push_back(values[k]);
  }
  return median(picked);
}

Served serve(Deployment& d, const WorkloadDef& w, const Tape& tape,
             Record& record, SpanLog* spans, bool paced) {
  return d.sharded
             ? serve_on(*d.sharded, d, w, tape, record, spans, paced)
             : serve_on(*d.manager, d, w, tape, record, spans, paced);
}

/// The paced-phase latencies of one paradigm's decisions.
std::vector<double> latencies_of(const std::vector<Sample>& samples,
                                 Paradigm p) {
  std::vector<double> out;
  for (const Sample& x : samples) {
    if (x.paradigm == p) out.push_back(x.us);
  }
  return out;
}

// ---- correctness reference and stage replay ---------------------------------

bool same_decision(const core::Decision& a, const core::Decision& b) {
  return a.label == b.label && a.t == b.t &&
         std::memcmp(&a.confidence, &b.confidence, sizeof(a.confidence)) == 0;
}

/// Index of the first differing decision, or -1 when the streams are equal.
Index first_mismatch(const std::vector<core::Decision>& a,
                     const std::vector<core::Decision>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_decision(a[i], b[i])) return static_cast<Index>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<Index>(n);
}

std::vector<std::vector<std::uint32_t>> ops_by_session(const Tape& tape,
                                                       std::size_t sessions) {
  std::vector<std::vector<std::uint32_t>> out(sessions);
  for (std::size_t i = 0; i < tape.ops.size(); ++i) {
    out[static_cast<std::size_t>(tape.ops[i].session)].push_back(
        static_cast<std::uint32_t>(i));
  }
  return out;
}

/// One session's sequential reference: its decision stream from feeding its
/// ops directly and in order into a fresh session, and the time that took.
struct Reference {
  std::vector<core::Decision> decisions;
  std::int64_t feed_ns = 0;
  std::int64_t events = 0;
};

/// The reference of every session. Sessions run in parallel with each
/// other; each one is fed by a single thread.
std::vector<Reference> reference_streams(
    const Pipelines& pipelines, const std::vector<Paradigm>& paradigms,
    const Tape& tape,
    const std::vector<std::vector<std::uint32_t>>& by_session) {
  std::vector<Reference> refs(paradigms.size());
  par::parallel_for(0, static_cast<Index>(paradigms.size()), 1,
                    [&](Index b, Index e) {
    for (Index s = b; s < e; ++s) {
      const auto su = static_cast<std::size_t>(s);
      auto session = pipelines.open(paradigms[su]);
      Reference& r = refs[su];
      const std::int64_t t0 = now_ns();
      std::size_t since_drain = 0;
      for (const std::uint32_t i : by_session[su]) {
        const TapeOp& op = tape.ops[i];
        if (op.advance) {
          session->advance_to(op.t);
        } else {
          session->feed(op.event());
          ++r.events;
        }
        if (++since_drain == 128) {
          session->drain(r.decisions);
          since_drain = 0;
        }
      }
      session->drain(r.decisions);
      r.feed_ns = now_ns() - t0;
    }
  });
  return refs;
}

/// A resident Record with room for everything a correct run records.
Record make_record(const std::vector<Reference>& refs, const Tape& tape) {
  Record r;
  r.served.resize(refs.size());
  std::size_t decisions = 0;
  for (std::size_t s = 0; s < refs.size(); ++s) {
    reserve_resident(r.served[s], refs[s].decisions.size());
    decisions += refs[s].decisions.size();
  }
  reserve_resident(r.samples, decisions);
  std::size_t paced_ops = 0;
  for (const Segment& seg : tape.segments) {
    if (seg.paced) paced_ops += seg.end - seg.begin;
  }
  reserve_resident(r.lag_us, paced_ops);
  return r;
}

struct CnnTotals {
  std::int64_t frames = 0;  ///< Non-empty frames classified.
  std::int64_t conv_macs = 0;
};

/// The CNN session's stage chain, called stage by stage.
class CnnReplay {
 public:
  CnnReplay(cnn::CnnPipeline& p, route::PathId path, SpanLog& log,
            std::vector<core::Decision>& out, CnnTotals& totals)
      : p_(p),
        log_(log),
        out_(out),
        totals_(totals),
        algo_(algo_for(path)),
        frame_({cnn::representation_channels(p.config().frame.repr),
                p.config().height, p.config().width}),
        last_on_(
            static_cast<std::size_t>(p.config().width * p.config().height)),
        last_off_(last_on_.size()),
        frame_end_(p.config().frame_period_us),
        segment_start_(now_ns()) {
    for (Index i = 0; i < p.model().size(); ++i) {
      conv_.push_back(p.model().layer(i).name() == "Conv2d");
    }
  }

  void feed(const events::Event& e) {
    close_until(e.t);
    const Index capacity = p_.config().stream_window_capacity;
    if (static_cast<Index>(window_.size()) < capacity) {
      window_.push_back(e);
    }
  }
  void advance(TimeUs t) { close_until(t); }
  void finish() {
    log_.record(SpanKind::CnnAccumulate, segment_start_, now_ns());
  }

 private:
  static nn::ConvAlgo algo_for(route::PathId path) {
    if (!route::enabled()) return nn::ConvAlgo::Auto;
    switch (path) {
      case route::PathId::CnnDirect:
        return nn::ConvAlgo::Direct;
      case route::PathId::CnnGemm:
        return nn::ConvAlgo::Gemm;
      case route::PathId::CnnSparse:
        return nn::ConvAlgo::Sparse;
      default:
        return nn::ConvAlgo::Auto;
    }
  }

  void close_until(TimeUs now) {
    while (now >= frame_end_) {
      log_.record(SpanKind::CnnAccumulate, segment_start_, now_ns());
      close();
      frame_start_ = frame_end_;
      frame_end_ += p_.config().frame_period_us;
      segment_start_ = now_ns();
    }
  }

  void close() {
    core::Decision d;
    d.t = frame_end_;
    if (!window_.empty()) {
      const nn::ScopedConvAlgo scope(algo_);
      std::int64_t t0 = now_ns();
      cnn::build_frame_into(window_, p_.config().width, p_.config().height,
                            frame_start_, frame_end_, p_.config().frame, frame_,
                            cnn::FrameScratch{last_on_, last_off_});
      std::int64_t t1 = now_ns();
      log_.record(SpanKind::CnnFrameBuild, t0, t1);
      if (totals_.frames == 0) count_conv_macs();
      nn::Tensor x;
      const nn::Tensor* in = &frame_;
      for (Index i = 0; i < p_.model().size(); ++i) {
        t0 = t1;
        x = p_.model().layer(i).forward(*in, false);
        in = &x;
        t1 = now_ns();
        log_.record(conv_[static_cast<std::size_t>(i)] ? SpanKind::CnnConv
                                                       : SpanKind::CnnHead,
                    t0, t1);
      }
      const nn::Tensor probs = nn::softmax(x);
      d.label = static_cast<int>(probs.argmax());
      d.confidence = probs[probs.argmax()];
      log_.record(SpanKind::CnnHead, t1, now_ns());
      ++totals_.frames;
    }
    out_.push_back(d);
    window_.clear();
  }

  /// Conv MACs of one frame, from an untimed counted forward (the shape,
  /// not the content, fixes them).
  void count_conv_macs() {
    nn::OpCounter counter;
    nn::Tensor x;
    const nn::Tensor* in = &frame_;
    for (Index i = 0; i < p_.model().size(); ++i) {
      if (conv_[static_cast<std::size_t>(i)]) {
        nn::ScopedCounter scope(counter);
        x = p_.model().layer(i).forward(*in, false);
      } else {
        x = p_.model().layer(i).forward(*in, false);
      }
      in = &x;
    }
    totals_.conv_macs = counter.macs();
  }

  cnn::CnnPipeline& p_;
  SpanLog& log_;
  std::vector<core::Decision>& out_;
  CnnTotals& totals_;
  nn::ConvAlgo algo_;
  std::vector<bool> conv_;
  nn::Tensor frame_;
  std::vector<events::Event> window_;
  std::vector<TimeUs> last_on_, last_off_;
  TimeUs frame_start_ = 0;
  TimeUs frame_end_;
  std::int64_t segment_start_;
};

struct SnnTotals {
  std::int64_t steps = 0;
  std::int64_t hidden_spikes = 0;
};

/// The SNN session's stage chain: bin events, step (or step_event when
/// routed) once per timestep, read out.
class SnnReplay {
 public:
  SnnReplay(snn::SnnPipeline& p, route::PathId path, SpanLog& log,
            std::vector<core::Decision>& out, SnnTotals& totals)
      : p_(p),
        log_(log),
        out_(out),
        totals_(totals),
        event_driven_(route::enabled() &&
                      path == route::PathId::SnnEventDriven),
        state_(p.net().make_state()),
        step_end_(p.config().timestep_us),
        segment_start_(now_ns()) {
    const auto& enc = p.config().encoder;
    pw_ = p.config().width / enc.spatial_factor;
    ph_ = p.config().height / enc.spatial_factor;
    seen_.assign(static_cast<std::size_t>(
                     snn::encoded_size(p.config().width, p.config().height,
                                       enc)),
                 0);
  }

  void feed(const events::Event& e) {
    tick_until(e.t);
    const Index f = p_.config().encoder.spatial_factor;
    const Index px = e.x / f;
    const Index py = e.y / f;
    if (px >= pw_ || py >= ph_) return;
    const Index idx = polarity_channel(e.polarity) * pw_ * ph_ + py * pw_ + px;
    if (!seen_[static_cast<std::size_t>(idx)]) {
      seen_[static_cast<std::size_t>(idx)] = 1;
      pending_.push_back(idx);
    }
  }
  void advance(TimeUs t) { tick_until(t); }
  void finish() { log_.record(SpanKind::SnnEncode, segment_start_, now_ns()); }

 private:
  void tick_until(TimeUs now) {
    while (now >= step_end_) {
      const std::int64_t t0 = now_ns();
      log_.record(SpanKind::SnnEncode, segment_start_, t0);
      const nn::Tensor logits = event_driven_
                                    ? p_.net().step_event(state_, pending_)
                                    : p_.net().step(state_, pending_);
      const std::int64_t t1 = now_ns();
      log_.record(SpanKind::SnnStep, t0, t1);
      ++totals_.steps;
      totals_.hidden_spikes += state_.step_hidden_spikes;
      for (const Index i : pending_) seen_[static_cast<std::size_t>(i)] = 0;
      pending_.clear();
      core::Decision d;
      d.t = step_end_;
      d.label = static_cast<int>(logits.argmax());
      const nn::Tensor probs = nn::softmax(logits);
      d.confidence = probs[probs.argmax()];
      out_.push_back(d);
      step_end_ += p_.config().timestep_us;
      segment_start_ = now_ns();
      log_.record(SpanKind::SnnReadout, t1, segment_start_);
    }
  }

  snn::SnnPipeline& p_;
  SpanLog& log_;
  std::vector<core::Decision>& out_;
  SnnTotals& totals_;
  bool event_driven_;
  snn::SnnState state_;
  TimeUs step_end_;
  Index pw_ = 0, ph_ = 0;
  std::vector<char> seen_;
  std::vector<Index> pending_;
  std::int64_t segment_start_;
};

struct GnnTotals {
  std::int64_t inserts = 0;
  std::int64_t candidates = 0;
  std::int64_t macs = 0;
};

/// The GNN session's stage chain: graph insert, message pass (batch sweep
/// when routed), readout — per surviving event.
class GnnReplay {
 public:
  GnnReplay(gnn::GnnPipeline& p, route::PathId path, SpanLog& log,
            std::vector<core::Decision>& out, GnnTotals& totals)
      : p_(p),
        log_(log),
        out_(out),
        totals_(totals),
        batch_(route::enabled() && path == route::PathId::GnnBatch),
        builder_(p.config().width, p.config().height,
                 gnn::IncrementalConfig{p.config().graph.time_scale,
                                        p.config().graph.radius,
                                        p.config().graph.max_neighbors, 16}),
        async_(p.model(), /*bidirectional=*/false),
        logits_({p.config().num_classes}),
        probs_({p.config().num_classes}) {
    builder_.reserve_nodes(p.config().stream_max_nodes);
    async_.reserve(p.config().stream_max_nodes, p.config().graph.max_neighbors);
    neighbors_.reserve(
        static_cast<std::size_t>(p.config().graph.max_neighbors));
  }

  void feed(const events::Event& e) {
    if (stride_counter_++ % p_.config().stream_stride != 0) return;
    if (builder_.node_count() >= p_.config().stream_max_nodes) {
      builder_.clear();
      async_.reset();
    }
    const std::int64_t t0 = now_ns();
    Index candidates = 0;
    builder_.insert_into(e, neighbors_, &candidates);
    gnn::GraphNode node;
    node.position = gnn::embed(e, p_.config().graph.time_scale);
    node.polarity_sign = static_cast<std::int8_t>(polarity_sign(e.polarity));
    node.t = e.t;
    const std::int64_t t1 = now_ns();
    const gnn::AsyncGnnStats stats = batch_
                                         ? async_.insert_batch(node, neighbors_)
                                         : async_.insert(node, neighbors_);
    const std::int64_t t2 = now_ns();
    async_.logits_into(logits_);
    nn::softmax_into(logits_, probs_);
    core::Decision d;
    d.t = e.t;
    d.label = static_cast<int>(probs_.argmax());
    d.confidence = probs_[probs_.argmax()];
    out_.push_back(d);
    const std::int64_t t3 = now_ns();
    log_.record(SpanKind::GnnInsert, t0, t1);
    log_.record(SpanKind::GnnMessagePass, t1, t2);
    log_.record(SpanKind::GnnReadout, t2, t3);
    ++totals_.inserts;
    totals_.candidates += candidates;
    totals_.macs += stats.macs;
  }
  void advance(TimeUs) {}
  void finish() {}

 private:
  gnn::GnnPipeline& p_;
  SpanLog& log_;
  std::vector<core::Decision>& out_;
  GnnTotals& totals_;
  bool batch_;
  gnn::IncrementalGraphBuilder builder_;
  gnn::AsyncEventGnn async_;
  Index stride_counter_ = 0;
  std::vector<Index> neighbors_;
  nn::Tensor logits_, probs_;
};

struct ReplayResult {
  SpanLog stages;
  std::vector<SpanLog> kept;  ///< Per-span logs of the first few sessions.
  CnnTotals cnn;
  SnnTotals snn;
  GnnTotals gnn;
  Index mismatched_sessions = 0;
};

template <typename Replay, typename Pipeline, typename Totals>
void replay_one(Pipeline& p, route::PathId path, const Tape& tape,
                const std::vector<std::uint32_t>& ops, SpanLog& log,
                std::vector<core::Decision>& out, Totals& totals) {
  Replay r(p, path, log, out, totals);
  for (const std::uint32_t i : ops) {
    const TapeOp& op = tape.ops[i];
    if (op.advance) {
      r.advance(op.t);
    } else {
      r.feed(op.event());
    }
  }
  r.finish();
}

/// Replay every session's ops through its paradigm's public stage functions
/// (on the session's installed execution path) and require the replay to
/// reproduce the served decision stream.
ReplayResult replay_stages(
    Deployment& d, const std::vector<Paradigm>& paradigms, const Tape& tape,
    const std::vector<std::vector<std::uint32_t>>& by_session,
    const std::vector<std::vector<core::Decision>>& served) {
  constexpr std::size_t kKeptSessions = 3;
  constexpr std::size_t kKeptSpans = 4000;
  const std::size_t n = paradigms.size();
  std::vector<SpanLog> logs;
  logs.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    logs.emplace_back(s < kKeptSessions ? kKeptSpans : 0,
                      static_cast<std::uint32_t>(s + 1));
  }
  std::vector<CnnTotals> cnn(n);
  std::vector<SnnTotals> snn(n);
  std::vector<GnnTotals> gnn(n);
  std::vector<char> mismatch(n, 0);
  std::vector<route::PathId> paths(n);
  for (std::size_t s = 0; s < n; ++s) {
    paths[s] = d.session(static_cast<Index>(s)).execution_path();
  }
  par::parallel_for(0, static_cast<Index>(n), 1, [&](Index b, Index e) {
    std::vector<core::Decision> out;
    for (Index s = b; s < e; ++s) {
      const auto su = static_cast<std::size_t>(s);
      out.clear();
      switch (paradigms[su]) {
        case Paradigm::Cnn:
          replay_one<CnnReplay>(*d.pipelines.cnn, paths[su], tape, by_session[su],
                                logs[su], out, cnn[su]);
          break;
        case Paradigm::Snn:
          replay_one<SnnReplay>(*d.pipelines.snn, paths[su], tape, by_session[su],
                                logs[su], out, snn[su]);
          break;
        case Paradigm::Gnn:
          replay_one<GnnReplay>(*d.pipelines.gnn, paths[su], tape, by_session[su],
                                logs[su], out, gnn[su]);
          break;
      }
      mismatch[su] = first_mismatch(served[su], out) >= 0 ? 1 : 0;
    }
  });
  ReplayResult r;
  for (std::size_t s = 0; s < n; ++s) {
    r.stages.merge_totals(logs[s]);
    r.cnn.frames += cnn[s].frames;
    r.cnn.conv_macs = std::max(r.cnn.conv_macs, cnn[s].conv_macs);
    r.snn.steps += snn[s].steps;
    r.snn.hidden_spikes += snn[s].hidden_spikes;
    r.gnn.inserts += gnn[s].inserts;
    r.gnn.candidates += gnn[s].candidates;
    r.gnn.macs += gnn[s].macs;
    r.mismatched_sessions += mismatch[s];
  }
  for (std::size_t s = 0; s < std::min(n, kKeptSessions); ++s) {
    r.kept.push_back(std::move(logs[s]));
  }
  return r;
}

// ---- metrics ----------------------------------------------------------------

/// A field of /proc/self/status ("VmRSS", "VmHWM") in MB.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

/// Restart the resident high-water mark (VmHWM) from the current resident
/// set.
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  if (!clear_refs) {
    throw std::runtime_error("cannot reset the resident high-water mark");
  }
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct LayerInfo {
  const char* name;
  const char* unit;
  const char* moves;  ///< End-to-end metric it should move.
  const char* on;     ///< Workloads where it should move it.
};

/// The per-layer ledger, in output order.
const LayerInfo kLayers[] = {
    {"par.busy_frac", "ratio", "throughput_eps", "mixed_dense,tenant_zipf"},
    {"par.regions_per_kev", "count", "latency_p50_us", "sparse_corner"},
    {"runtime.submit_ns", "ns", "latency_p50_us", "sparse_corner"},
    {"runtime.pump_us", "us", "throughput_eps", "mixed_dense"},
    {"runtime.ops_per_pump", "count", "throughput_eps", "mixed_dense"},
    {"runtime.backlog_ops", "count", "latency_p99_us", "mixed_dense"},
    {"runtime.drain_ns", "ns", "latency_p50_us", "mixed_dense"},
    {"shard.submit_ns", "ns", "latency_p50_us", "tenant_zipf"},
    {"shard.pump_us", "us", "throughput_eps", "tenant_zipf"},
    {"shard.ring_full", "count", "latency_p99_us", "tenant_zipf"},
    {"shard.skew", "ratio", "throughput_eps", "tenant_zipf"},
    {"sched.plan_ms", "ms", "setup_s", "mixed_dense"},
    {"sched.model_ratio", "ratio", "none (planner accuracy)", "mixed_dense"},
    {"route.sessions_rerouted", "count", "throughput_eps", "sparse_corner"},
    {"fault.checkpoints", "count", "throughput_eps", "mixed_dense"},
    {"fault.save_us", "us", "throughput_eps", "mixed_dense"},
    {"fault.state_kb", "kB", "throughput_eps", "mixed_dense"},
    {"obs.scrape_ms", "ms", "latency_p99_us", "tenant_zipf"},
    {"session.cnn.feed_ns", "ns", "throughput_eps",
     "mixed_dense,sparse_corner"},
    {"session.snn.feed_ns", "ns", "throughput_eps",
     "mixed_dense,sparse_corner"},
    {"session.gnn.feed_ns", "ns", "throughput_eps", "mixed_dense,tenant_zipf"},
    {"session.cnn.latency_p50_us", "us", "latency_p50_us", "mixed_dense"},
    {"session.snn.latency_p50_us", "us", "latency_p50_us", "mixed_dense"},
    {"session.gnn.latency_p50_us", "us", "latency_p50_us", "mixed_dense"},
    {"cnn.frame_build_us", "us", "throughput_eps", "mixed_dense"},
    {"cnn.conv_us", "us", "throughput_eps", "mixed_dense,sparse_corner"},
    {"cnn.head_us", "us", "throughput_eps", "mixed_dense"},
    {"cnn.conv_gflops", "GFLOP/s", "throughput_eps", "mixed_dense"},
    {"snn.step_us", "us", "throughput_eps,latency_p50_us",
     "mixed_dense,sparse_corner"},
    {"snn.spikes_per_step", "count", "throughput_eps",
     "mixed_dense,sparse_corner"},
    {"gnn.insert_ns", "ns", "throughput_eps", "tenant_zipf,mixed_dense"},
    {"gnn.candidates_per_insert", "count", "throughput_eps",
     "tenant_zipf,mixed_dense"},
    {"gnn.message_pass_ns", "ns", "throughput_eps,latency_p50_us",
     "mixed_dense"},
    {"gnn.macs_per_event", "count", "throughput_eps", "mixed_dense"},
    {"gnn.readout_ns", "ns", "throughput_eps,latency_p50_us", "mixed_dense"},
    {"gen.lag_p99_us", "us", "none (benchmark health)", "all"},
    {"trace.overhead_frac", "ratio", "none (benchmark health)", "all"},
    {"trace.coverage", "ratio", "none (benchmark health)", "all"},
};

const LayerInfo& layer_info(const std::string& name) {
  for (const LayerInfo& l : kLayers) {
    if (name == l.name) return l;
  }
  throw std::logic_error("unlisted layer metric " + name);
}

template <typename T>
std::string json_array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? "," : "") + json_number(static_cast<double>(values[i]));
  }
  return out + "]";
}

std::string plan_label(const Deployment& d) {
  if (!d.planned) return "none";
  std::string out;
  for (const sched::ParadigmPlacement& p : d.plan.placements) {
    if (!out.empty()) out += ",";
    out += p.paradigm + "->" + route::path_name(p.path);
  }
  return out;
}

/// One output line: {"workload":..., <body>}, body being JSON members.
std::string note(const std::string& workload, const std::string& body) {
  return "{\"workload\":\"" + workload + "\"," + body + "}";
}

/// The members of a JSON object, without its braces.
std::string members(const std::string& object) {
  return object.substr(1, object.size() - 2);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const WorkloadDef& w : workload_defs()) out.push_back(w.name);
    return out;
  }();
  return names;
}

RunResult run_workload(const RunOptions& opts) {
  const WorkloadDef& w = find_workload(opts.workload);
  const Tape tape = make_tape(w, opts.seed, opts.seconds);
  const auto by_session = ops_by_session(tape, w.sessions.size());
  const std::vector<Reference> refs =
      reference_streams(Pipelines(w), w.sessions, tape, by_session);
  RunResult result;
  result.attempted = static_cast<std::int64_t>(tape.ops.size());

  SpanLog driver_log(opts.trace ? 400000 : 0, 0);
  SpanLog* spans = opts.trace ? &driver_log : nullptr;
  const std::int64_t epoch_ns = now_ns();

  // Traced runs first serve the saturating phase untraced, on a deployment
  // of their own, for the tracing overhead.
  double untraced_eps = 0.0;
  if (opts.trace) {
    auto d = deploy(w, nullptr);
    Record scratch = make_record(refs, tape);
    const Served untraced =
        serve(*d, w, tape, scratch, nullptr, /*paced=*/false);
    untraced_eps = quiet_median(untraced.rates, untraced.saturate_steal);
  }

  // From here on the harness allocates nothing that grows with the run, so
  // the resident set's growth past this baseline is the program's.
  Record record = make_record(refs, tape);
  // Return the pages the reference sessions freed, so the program cannot
  // grow into them without the resident set showing it.
  malloc_trim(0);
  const double baseline_mb = status_mb("VmRSS");
  reset_peak_rss();

  std::unique_ptr<Deployment> deployment;
  std::vector<double> setups, setup_cpus;  // wall, CPU
  double setup_total_s = 0.0;
  while (setups.size() < kMinSetups ||
         (setup_total_s < kSetupBudgetS && setups.size() < kMaxSetups)) {
    deployment.reset();
    sched::Planner::instance().clear_cache();
    const std::int64_t t0 = now_ns();
    const std::int64_t cpu0 = process_cpu_ns();
    deployment = deploy(w, spans);
    const std::int64_t t1 = now_ns();
    if (spans) spans->record(SpanKind::Setup, t0, t1);
    setups.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup_cpus.push_back(static_cast<double>(process_cpu_ns() - cpu0) * 1e-9);
    setup_total_s += setups.back();
  }
  const double setup_wall_s = median(setups);
  const double setup_s = median(setup_cpus);
  Deployment& d = *deployment;

  par::reset_pool_stats();
  const Served run = serve(d, w, tape, record, spans, /*paced=*/true);
  const double peak_mb = status_mb("VmHWM") - baseline_mb;
  const DriverCounts& counts = run.counts;
  const par::PoolStats pool = par::pool_stats();
  const ServerTotals totals = d.totals();

  // Every op was retried until accepted, so the loss ledger minus those
  // refusals is what was never served.
  result.failed =
      std::max<std::int64_t>(0, totals.events_dropped - counts.refusals);
  if (totals.ops_popped != result.attempted) {
    result.failed = std::max<std::int64_t>(
        result.failed, result.attempted - totals.ops_popped);
  }

  Index mismatched = 0;
  for (std::size_t s = 0; s < refs.size(); ++s) {
    const Index at = first_mismatch(record.served[s], refs[s].decisions);
    if (at < 0) continue;
    if (mismatched == 0) {
      result.notes.push_back(note(
          w.name, "\"error\":\"decision stream mismatch\",\"session\":" +
                      std::to_string(s) + ",\"decision\":" +
                      std::to_string(at)));
    }
    ++mismatched;
  }
  result.correct = mismatched == 0 && result.failed == 0 &&
                   totals.decisions_dropped == 0 && totals.faults == 0;

  const std::int64_t events = tape.events(0, tape.ops.size());
  // Latency percentiles over every decision due in a paced window measured
  // in a quiet stretch.
  const std::vector<char> quiet = quiet_segments(run.paced_steal);
  const auto quiet_windows = std::count(quiet.begin(), quiet.end(), 1);
  std::vector<double> latencies;
  latencies.reserve(record.samples.size());
  for (const Sample& x : record.samples) {
    if (quiet[static_cast<std::size_t>(x.window)]) latencies.push_back(x.us);
  }
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  std::vector<double> lag = record.lag_us;
  const double lag_p99 = percentile(lag, 0.99);
  const double throughput = quiet_median(run.rates, run.saturate_steal);

  result.notes.push_back(note(
      w.name,
      "\"phase\":\"summary\",\"sessions\":" +
          std::to_string(w.sessions.size()) +
          ",\"offered_eps\":" + json_number(w.offered_eps) +
          ",\"ops\":" + std::to_string(tape.ops.size()) +
          ",\"events\":" + std::to_string(events) +
          ",\"saturate_events\":" + std::to_string(run.saturate_events) +
          ",\"saturate_s\":" + json_number(run.saturate_s) +
          ",\"paced_s\":" + json_number(run.paced_s) +
          ",\"paced_windows\":" + std::to_string(run.windows) +
          ",\"setups\":" + std::to_string(setups.size()) +
          ",\"setup_wall_s\":" + json_number(setup_wall_s) +
          ",\"quiet_windows\":" + std::to_string(quiet_windows) +
          ",\"saturate_eps\":" + json_array(run.rates) +
          ",\"saturate_steal_ticks\":" + json_array(run.saturate_steal) +
          ",\"paced_steal_ticks\":" + json_array(run.paced_steal) +
          ",\"decisions\":" + std::to_string(counts.decisions) +
          ",\"mismatched_sessions\":" + std::to_string(mismatched) +
          ",\"drop_frac\":" +
          json_number(ratio(static_cast<double>(result.failed),
                            static_cast<double>(result.attempted))) +
          ",\"refused_submits\":" + std::to_string(counts.refusals) +
          ",\"room_waits\":" + std::to_string(counts.room_waits) +
          ",\"baseline_rss_mb\":" + json_number(baseline_mb) +
          ",\"plan\":\"" + plan_label(d) + "\""));
  // Wall-clock figures, reported but not gated: on a shared host they follow
  // the neighbours' load (see BENCHMARK.json's end-to-end metrics).
  result.notes.push_back(note(
      w.name, "\"metric\":\"throughput_eps\",\"value\":" +
                  json_number(throughput) + ",\"unit\":\"events/s\""));
  for (const auto& [name, value, samples] :
       {std::tuple{"latency_p50_us", p50, latencies.size()},
        std::tuple{"latency_p99_us", p99, latencies.size()},
        std::tuple{"gen.lag_p99_us", lag_p99, lag.size()}}) {
    result.notes.push_back(
        note(w.name, members(percentile_json(name, value, "us", samples))));
  }

  if (!opts.trace) {
    result.metrics = {
        {"cpu_ns_per_event",
         quiet_median(run.cpu_ns_per_event, run.saturate_steal), "ns"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_mb, "MB"},
    };
    return result;
  }

  // ---- traced run: the per-layer ledger ----
  const ReplayResult replay = replay_stages(d, w.sessions, tape, by_session,
                                            record.served);
  if (replay.mismatched_sessions > 0) {
    result.correct = false;
    result.notes.push_back(note(
        w.name, "\"error\":\"stage replay diverged from serving\","
                "\"sessions\":" +
                    std::to_string(replay.mismatched_sessions)));
  }

  std::map<std::string, Metric> m;
  const auto set = [&m](const std::string& name, double value, bool applies,
                        std::size_t samples = 0) {
    m[name] = Metric{name, applies ? value : 0.0, layer_info(name).unit,
                     samples, applies};
  };
  const SpanLog& dl = driver_log;
  const double served_events = static_cast<double>(events);
  const double threads = static_cast<double>(par::thread_count());
  set("par.busy_frac",
      ratio(static_cast<double>(pool.worker_busy_ns),
            static_cast<double>(pool.region_wall_ns) * threads),
      true);
  set("par.regions_per_kev",
      ratio(static_cast<double>(pool.regions), served_events / 1000.0), true);
  const bool managed = !w.sharded;
  const double pump_us = dl.mean_ns(SpanKind::Pump) * 1e-3;
  set("runtime.submit_ns", dl.mean_ns(SpanKind::Submit), managed);
  set("runtime.pump_us", pump_us, managed);
  set("runtime.ops_per_pump",
      ratio(static_cast<double>(counts.ops_pumped),
            static_cast<double>(counts.pumps)),
      managed);
  set("runtime.backlog_ops",
      ratio(static_cast<double>(counts.backlog_sum),
            static_cast<double>(counts.pumps)),
      managed);
  set("runtime.drain_ns",
      ratio(static_cast<double>(dl.total(SpanKind::Drain).ns),
            static_cast<double>(counts.decisions)),
      managed);
  set("shard.submit_ns", dl.mean_ns(SpanKind::Submit), w.sharded);
  set("shard.pump_us", pump_us, w.sharded);
  set("shard.ring_full", static_cast<double>(counts.refusals), w.sharded);
  double skew = 0.0;
  if (w.sharded) {
    std::vector<double> per_shard;
    for (Index k = 0; k < d.sharded->shard_count(); ++k) {
      per_shard.push_back(
          static_cast<double>(d.sharded->shard(k).stats().totals.events_fed));
    }
    double sum = 0.0;
    for (double v : per_shard) sum += v;
    skew = ratio(*std::max_element(per_shard.begin(), per_shard.end()),
                 sum / static_cast<double>(per_shard.size()));
  }
  set("shard.skew", skew, w.sharded);
  set("sched.plan_ms", dl.mean_ns(SpanKind::PlanFor) * 1e-6, d.planned);
  double model_ratio = 0.0;
  if (d.planned) {
    std::vector<sched::SessionProfile> actual = d.profiles;
    for (auto& profile : actual) profile.queued_ops = 0;
    for (const Segment& seg : tape.segments) {
      if (seg.paced) continue;
      for (std::size_t i = seg.begin; i < seg.end; ++i) {
        ++actual[static_cast<std::size_t>(tape.ops[i].session)].queued_ops;
      }
    }
    model_ratio =
        ratio(sched::plan_cost_us(d.plan, actual, sched::CostModels{}),
              run.saturate_s * 1e6);
  }
  set("sched.model_ratio", model_ratio, d.planned);
  Index rerouted = 0;
  for (std::size_t s = 0; s < w.sessions.size(); ++s) {
    rerouted += d.session(static_cast<Index>(s)).execution_path() !=
                        route::PathId::Default
                    ? 1
                    : 0;
  }
  set("route.sessions_rerouted", static_cast<double>(rerouted), true);
  set("fault.checkpoints", static_cast<double>(totals.checkpoints),
      w.checkpoint_every > 0);
  {
    std::vector<std::uint8_t> bytes;
    std::int64_t total_bytes = 0;
    SpanLog save_log;
    for (std::size_t s = 0; s < w.sessions.size(); ++s) {
      bytes.clear();
      const std::int64_t t0 = now_ns();
      d.session(static_cast<Index>(s)).save_state(bytes);
      save_log.record(SpanKind::SaveState, t0, now_ns());
      total_bytes += static_cast<std::int64_t>(bytes.size());
    }
    set("fault.save_us", save_log.mean_ns(SpanKind::SaveState) * 1e-3, true);
    set("fault.state_kb",
        static_cast<double>(total_bytes) /
            static_cast<double>(w.sessions.size()) / 1024.0,
        true);
  }
  set("obs.scrape_ms",
      ratio(static_cast<double>(counts.scrape_ns) * 1e-6,
            static_cast<double>(counts.scrapes)),
      w.scrape);
  std::int64_t feed_ns[3] = {0, 0, 0};
  std::int64_t feed_events[3] = {0, 0, 0};
  std::int64_t direct_ns = 0;
  for (std::size_t s = 0; s < refs.size(); ++s) {
    const int k = static_cast<int>(w.sessions[s]);
    feed_ns[k] += refs[s].feed_ns;
    feed_events[k] += refs[s].events;
    direct_ns += refs[s].feed_ns;
  }
  for (Paradigm p : {Paradigm::Cnn, Paradigm::Snn, Paradigm::Gnn}) {
    const int k = static_cast<int>(p);
    const std::string prefix = std::string("session.") + paradigm_name(p);
    const bool present = feed_events[k] > 0;
    set(prefix + ".feed_ns",
        ratio(static_cast<double>(feed_ns[k]),
              static_cast<double>(feed_events[k])),
        present);
    std::vector<double> lat = latencies_of(record.samples, p);
    const std::size_t samples = lat.size();
    set(prefix + ".latency_p50_us", percentile(lat, 0.5), present, samples);
  }
  const SpanLog& st = replay.stages;
  const bool has_cnn = replay.cnn.frames > 0;
  const double frames = static_cast<double>(replay.cnn.frames);
  const double conv_ns = static_cast<double>(st.total(SpanKind::CnnConv).ns);
  set("cnn.frame_build_us", st.mean_ns(SpanKind::CnnFrameBuild) * 1e-3,
      has_cnn);
  set("cnn.conv_us", ratio(conv_ns * 1e-3, frames), has_cnn);
  set("cnn.head_us",
      ratio(static_cast<double>(st.total(SpanKind::CnnHead).ns) * 1e-3, frames),
      has_cnn);
  set("cnn.conv_gflops",
      ratio(2.0 * static_cast<double>(replay.cnn.conv_macs) * frames, conv_ns),
      has_cnn);
  const bool has_snn = replay.snn.steps > 0;
  set("snn.step_us", st.mean_ns(SpanKind::SnnStep) * 1e-3, has_snn);
  set("snn.spikes_per_step",
      ratio(static_cast<double>(replay.snn.hidden_spikes),
            static_cast<double>(replay.snn.steps)),
      has_snn);
  const bool has_gnn = replay.gnn.inserts > 0;
  const double inserts = static_cast<double>(replay.gnn.inserts);
  set("gnn.insert_ns", st.mean_ns(SpanKind::GnnInsert), has_gnn);
  set("gnn.candidates_per_insert",
      ratio(static_cast<double>(replay.gnn.candidates), inserts), has_gnn);
  set("gnn.message_pass_ns", st.mean_ns(SpanKind::GnnMessagePass), has_gnn);
  set("gnn.macs_per_event",
      ratio(static_cast<double>(replay.gnn.macs), inserts), has_gnn);
  set("gnn.readout_ns", st.mean_ns(SpanKind::GnnReadout), has_gnn);
  set("gen.lag_p99_us", lag_p99, true, lag.size());
  set("trace.overhead_frac", ratio(throughput, untraced_eps) - 1.0, true);
  // Replayed stage time per paradigm: its total over the direct-feed time is
  // the coverage, its split the paradigm shares (the mixed_dense sizing rule).
  const std::vector<SpanKind> stages[3] = {
      {SpanKind::CnnAccumulate, SpanKind::CnnFrameBuild, SpanKind::CnnConv,
       SpanKind::CnnHead},
      {SpanKind::SnnEncode, SpanKind::SnnStep, SpanKind::SnnReadout},
      {SpanKind::GnnInsert, SpanKind::GnnMessagePass, SpanKind::GnnReadout}};
  double stage_ns[3] = {0.0, 0.0, 0.0};
  for (int k = 0; k < 3; ++k) {
    for (SpanKind kind : stages[k]) {
      stage_ns[k] += static_cast<double>(st.total(kind).ns);
    }
  }
  const double all_ns = stage_ns[0] + stage_ns[1] + stage_ns[2];
  const double direct = static_cast<double>(direct_ns);
  set("trace.coverage", ratio(all_ns, direct), true);

  for (const LayerInfo& l : kLayers) result.metrics.push_back(m.at(l.name));

  std::string compute = "\"compute_share\":{";
  std::string feed = "\"direct_feed_share\":{";
  for (Paradigm p : {Paradigm::Cnn, Paradigm::Snn, Paradigm::Gnn}) {
    const int k = static_cast<int>(p);
    const std::string key = std::string(k ? "," : "") + "\"" +
                            paradigm_name(p) + "\":";
    compute += key + json_number(ratio(stage_ns[k], all_ns));
    feed += key +
            json_number(ratio(static_cast<double>(feed_ns[k]), direct));
  }
  const std::string shares = compute + "}," + feed + "}";
  result.notes.push_back(note(w.name, shares));

  // The two files of the traced run.
  const std::string stem = opts.out_dir + "/" + w.name + "-seed" +
                           std::to_string(opts.seed);
  {
    std::ofstream os(stem + ".trace.json");
    os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"" << w.name
       << "\",\"trace.overhead_frac\":"
       << json_number(m.at("trace.overhead_frac").value)
       << ",\"trace.coverage\":" << json_number(m.at("trace.coverage").value)
       << "},\"traceEvents\":[\n";
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\"driver\"}}";
    bool first = false;
    for (std::size_t s = 0; s < replay.kept.size(); ++s) {
      os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
         << "\"tid\":" << s + 1 << ",\"args\":{\"name\":\"replay session "
         << s << " (" << paradigm_name(w.sessions[s]) << ")\"}}";
    }
    driver_log.write_chrome_events(os, epoch_ns, &first);
    for (const SpanLog& log : replay.kept) {
      log.write_chrome_events(os, epoch_ns, &first);
    }
    os << "\n]}\n";
    if (!os) throw std::runtime_error("cannot write " + stem + ".trace.json");
  }
  {
    std::ofstream os(stem + ".ledger.json");
    os << "{\"workload\":\"" << w.name << "\",\"seed\":" << opts.seed
       << ",\"seconds\":" << json_number(opts.seconds) << ",\"layers\":[\n";
    bool first = true;
    for (const LayerInfo& l : kLayers) {
      const Metric& x = m.at(l.name);
      os << (first ? "" : ",\n") << "{\"metric\":\"" << l.name
         << "\",\"value\":" << json_number(x.value) << ",\"unit\":\"" << l.unit
         << "\",\"applies\":" << (x.applies ? "true" : "false")
         << ",\"should_move\":\"" << l.moves << "\",\"on\":\"" << l.on << "\"";
      if (x.samples > 0) os << ",\"samples\":" << x.samples;
      os << "}";
      first = false;
    }
    os << "\n]," << shares << "}\n";
    if (!os) throw std::runtime_error("cannot write " + stem + ".ledger.json");
  }
  result.notes.push_back(note(w.name, "\"trace_file\":\"" + stem +
                                          ".trace.json\",\"ledger_file\":\"" +
                                          stem + ".ledger.json\""));
  return result;
}

}  // namespace servebench

