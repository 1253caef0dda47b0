// Harness pieces of the serving benchmark that do not depend on a model:
// seeded arrival tapes, the open-loop schedule, percentiles and the
// benchmark's own span log. servebench_selftest exercises all of them.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "events/event.hpp"

namespace servebench {

using evd::Index;
using evd::TimeUs;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- arrival tapes ---------------------------------------------------------

/// One op of a tape: an event or an advance heartbeat for one session, due
/// at stream time `t` (µs; 32 bits hold 35 minutes). Packed into 16 bytes,
/// since a tape holds millions of them.
struct TapeOp {
  std::int32_t t = 0;
  std::int32_t session = 0;
  std::int16_t x = 0;
  std::int16_t y = 0;
  evd::Polarity polarity = evd::Polarity::On;
  bool advance = false;

  /// The event of a non-advance op.
  evd::events::Event event() const {
    evd::events::Event e;
    e.x = x;
    e.y = y;
    e.polarity = polarity;
    e.t = t;
    return e;
  }
};
static_assert(sizeof(TapeOp) == 16);

/// Stream-time layout of a tape: `cycles` repetitions of a saturating
/// stretch followed by a paced one. Alternating the two phases spreads both
/// measurements over the whole run, so a host that is busy for a few seconds
/// slows some slices and windows rather than a whole phase.
struct Layout {
  int cycles = 1;
  TimeUs saturate_us = 0;
  TimeUs paced_us = 0;
  TimeUs end_t() const { return cycles * (saturate_us + paced_us); }
};

/// Ops [begin, end) of a tape, starting at stream time t0, served either
/// saturating (as fast as the queues accept) or paced (open loop, in real
/// time from t0).
struct Segment {
  std::size_t begin = 0;
  std::size_t end = 0;
  TimeUs t0 = 0;
  bool paced = false;
};

struct Tape {
  std::vector<TapeOp> ops;        ///< Sorted by stream time.
  std::vector<Segment> segments;  ///< Saturating, paced, saturating, ...

  std::int64_t events(std::size_t begin, std::size_t end) const;
};

/// One session's independent Poisson event source: events uniform over the
/// [0, patch)^2 corner of the sensor, plus an advance heartbeat every
/// `heartbeat_us` of stream time (0: none) so clocked paradigms emit on time
/// in quiet stretches.
struct PoissonSource {
  double rate_eps = 0.0;
  Index patch = 32;
  TimeUs heartbeat_us = 0;
};

/// Independent sources, one per session, over the layout's stream time.
Tape poisson_tape(std::uint64_t seed, const std::vector<PoissonSource>& sources,
                  const Layout& layout);

/// Many tenants behind one arrival process: a two-state Markov-modulated
/// Poisson process (40 ms quiet / 10 ms bursts at 4x the quiet rate, on
/// average, exponential state durations) whose arrivals pick their tenant by
/// Zipf(1.1) rank — tenant id == rank.
struct MmppConfig {
  Index tenants = 10000;
  double mean_rate_eps = 1000.0;  ///< Long-run offered rate.
  Index geometry = 16;            ///< Square sensor side.
};

Tape mmpp_tape(std::uint64_t seed, const MmppConfig& config,
               const Layout& layout);

/// FNV-1a over every op field, in order: equal digests <=> equal tape bytes
/// (up to hash collision).
std::uint64_t tape_digest(const Tape& tape);

// ---- open loop -------------------------------------------------------------

/// Stream time -> wall time of the paced phase (1 µs of stream = 1 µs wall).
struct Schedule {
  std::int64_t wall_t0_ns = 0;
  TimeUs stream_t0 = 0;
  std::int64_t due_ns(TimeUs t) const {
    return wall_t0_ns + (t - stream_t0) * 1000;
  }
};

/// The real clock of the open loop.
struct WallClock {
  std::int64_t now() const { return now_ns(); }
  /// Sleep most of a long gap, spin the rest.
  void wait_until(std::int64_t deadline_ns) const {
    const std::int64_t gap = deadline_ns - now_ns();
    if (gap > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(gap - 100000));
    }
    while (now_ns() < deadline_ns) {
    }
  }
};

/// Open-loop replay of ops [begin, end) of `tape` from one thread: every op
/// is submitted as soon as it is due, whatever the server is doing, and its
/// lateness (submit time - due time) is appended to `lag_us`. Between
/// submissions `service()` pumps and drains and returns the work it did; the
/// loop ends once every op is submitted and service() reports no work. While
/// `service()` runs, ops that fall due simply wait, so a stall is charged to
/// every op due while it lasts.
template <typename Clock, typename Submit, typename Service, typename Lags>
void open_loop(const Tape& tape, std::size_t begin, std::size_t end,
               const Schedule& schedule, Clock& clock, Submit&& submit,
               Service&& service, Lags& lag_us) {
  std::size_t i = begin;
  for (;;) {
    while (i < end) {
      const std::int64_t due = schedule.due_ns(tape.ops[i].t);
      const std::int64_t now = clock.now();
      if (due > now) break;
      lag_us.push_back(static_cast<double>(now - due) * 1e-3);
      submit(tape.ops[i]);
      ++i;
    }
    const Index work = service();
    if (work > 0) continue;
    if (i >= end) break;
    clock.wait_until(schedule.due_ns(tape.ops[i].t));
  }
}

// ---- percentiles -----------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of `values`, which it reorders.
/// 0 when empty.
double percentile(std::vector<double>& values, double q);

/// A percentile as one JSON object that always carries its sample count:
/// {"metric":...,"value":...,"unit":...,"samples":N}.
std::string percentile_json(const std::string& metric, double value,
                            const std::string& unit, std::size_t samples);

double median(std::vector<double> values);

// ---- the benchmark's own spans ----------------------------------------------

/// Spans the benchmark records around its calls into the program's layers.
enum class SpanKind : int {
  Setup,
  PlanFor,
  SetPlan,
  Submit,
  Pump,
  Drain,
  Scrape,
  SaveState,
  CnnAccumulate,
  CnnFrameBuild,
  CnnConv,
  CnnHead,
  SnnEncode,
  SnnStep,
  SnnReadout,
  GnnInsert,
  GnnMessagePass,
  GnnReadout,
  Count
};

const char* span_name(SpanKind kind);

/// Per-kind totals of every span, plus up to `keep` spans kept verbatim for
/// the Chrome trace — at most a quarter of them of any one kind, so the
/// plentiful submits cannot crowd out the pumps. One log is written by one
/// thread.
class SpanLog {
 public:
  struct Total {
    std::int64_t count = 0;
    std::int64_t ns = 0;
  };

  explicit SpanLog(std::size_t keep = 0, std::uint32_t tid = 0)
      : keep_(keep), tid_(tid) {
    events_.reserve(keep);  // recording never reallocates mid-run
  }

  void record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns) {
    Total& t = totals_[static_cast<int>(kind)];
    ++t.count;
    t.ns += end_ns - start_ns;
    if (events_.size() < keep_ &&
        static_cast<std::size_t>(t.count) <= keep_ / 4) {
      events_.push_back({kind, start_ns, end_ns - start_ns});
    }
  }

  const Total& total(SpanKind kind) const {
    return totals_[static_cast<int>(kind)];
  }
  /// Mean span length in ns (0 when none).
  double mean_ns(SpanKind kind) const;
  void merge_totals(const SpanLog& other);

  /// Append this log's kept spans as Chrome trace "X" events (µs relative
  /// to `epoch_ns`), each preceded by a comma when `*first` is false.
  void write_chrome_events(std::ostream& os, std::int64_t epoch_ns,
                           bool* first) const;

 private:
  struct Event {
    SpanKind kind;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };
  Total totals_[static_cast<int>(SpanKind::Count)] = {};
  std::vector<Event> events_;
  std::size_t keep_;
  std::uint32_t tid_;
};

/// RAII span into an optional log (nullptr: free, records nothing).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind)
      : log_(log), kind_(kind), start_(log ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (log_) log_->record(kind_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  SpanKind kind_;
  std::int64_t start_;
};

/// Escape-free JSON number: finite values with all their digits, else 0.
std::string json_number(double v);

}  // namespace servebench
