#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

namespace evd::obs {
namespace {

constexpr Index kDefaultRingCapacity = 8192;

/// One thread's span ring. Single-writer (the owning thread); the mutex
/// serialises that writer against collect()/clear() from other threads.
/// The capacity is a power of two, so a slot index is a mask, not a `%`.
struct SpanRing {
  mutable std::mutex mutex;
  std::vector<TraceEvent> slots;
  size_t mask = 0;             ///< slots.size() - 1.
  std::int64_t total = 0;      ///< Spans ever recorded into this ring.
  std::int64_t collected = 0;  ///< High-water mark a collect() has seen.
  std::uint32_t tid = 0;

  explicit SpanRing(Index capacity, std::uint32_t id) : tid(id) {
    slots.resize(
        std::bit_ceil(static_cast<size_t>(capacity < 1 ? 1 : capacity)));
    mask = slots.size() - 1;
  }

  TraceEvent& slot(std::int64_t i) {
    return slots[static_cast<size_t>(i) & mask];
  }

  void push(const TraceEvent& event) {
    std::lock_guard<std::mutex> lock(mutex);
    slot(total) = event;
    ++total;
  }
};

struct TraceCore {
  mutable std::mutex mutex;
  std::vector<std::shared_ptr<SpanRing>> rings;  ///< Never shrinks; rings of
                                                 ///< exited threads persist.
  Index ring_capacity = kDefaultRingCapacity;
  // Paired (steady clock, tick counter) epoch: collect() reads both again
  // and derives the tick→ns ratio from the two elapsed intervals, so span
  // timestamps come out in nanoseconds without the hot path ever paying for
  // a kernel clock read.
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::uint64_t epoch_ticks = detail::now_ticks();
};

TraceCore& trace_core() {
  static TraceCore* core = new TraceCore();
  return *core;
}

SpanRing& local_ring() {
  thread_local std::shared_ptr<SpanRing> ring = [] {
    TraceCore& core = trace_core();
    std::lock_guard<std::mutex> lock(core.mutex);
    auto r = std::make_shared<SpanRing>(
        core.ring_capacity, static_cast<std::uint32_t>(core.rings.size()));
    core.rings.push_back(r);
    return r;
  }();
  return *ring;
}

}  // namespace

namespace detail {

std::uint32_t& span_depth() noexcept {
  thread_local std::uint32_t depth = 0;
  return depth;
}

void record_span(const char* name, std::uint64_t start_ticks,
                 std::uint64_t end_ticks) {
  // ts_ns/dur_ns hold *raw ticks* while the event sits in the ring;
  // collect() converts to nanoseconds with the calibrated ratio.
  TraceEvent event;
  event.name = name;
  event.ts_ns = static_cast<std::int64_t>(start_ticks);
  event.dur_ns = static_cast<std::int64_t>(end_ticks - start_ticks);
  event.depth = span_depth();
  SpanRing& ring = local_ring();
  event.tid = ring.tid;
  ring.push(event);
}

}  // namespace detail

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_core().epoch)
      .count();
}

void Tracer::set_ring_capacity(Index spans) {
  TraceCore& core = trace_core();
  std::lock_guard<std::mutex> lock(core.mutex);
  core.ring_capacity = spans < 1 ? 1 : spans;
}

std::vector<TraceEvent> Tracer::collect() const {
  TraceCore& core = trace_core();
  std::vector<std::shared_ptr<SpanRing>> rings;
  std::uint64_t epoch_ticks = 0;
  {
    std::lock_guard<std::mutex> lock(core.mutex);
    rings = core.rings;
    epoch_ticks = core.epoch_ticks;
  }
  // Calibrate: both epochs were captured together, so the elapsed steady
  // time over the elapsed ticks is the tick period. The ratio drifts only
  // with clock granularity, not with trace length.
  const std::int64_t elapsed_ns = now_ns();
  const std::uint64_t elapsed_ticks = detail::now_ticks() - epoch_ticks;
  const double ns_per_tick =
      elapsed_ticks > 0 && elapsed_ns > 0
          ? static_cast<double>(elapsed_ns) / static_cast<double>(elapsed_ticks)
          : 1.0;
  const auto to_ns = [&](std::int64_t raw_ticks) {
    const std::int64_t rel = raw_ticks - static_cast<std::int64_t>(epoch_ticks);
    return rel > 0
               ? static_cast<std::int64_t>(static_cast<double>(rel) *
                                           ns_per_tick)
               : 0;
  };
  std::vector<TraceEvent> out;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mutex);
    const auto capacity = static_cast<std::int64_t>(ring->slots.size());
    const std::int64_t kept = ring->total < capacity ? ring->total : capacity;
    const std::int64_t first = ring->total - kept;
    for (std::int64_t i = first; i < ring->total; ++i) {
      TraceEvent event = ring->slot(i);
      event.ts_ns = to_ns(event.ts_ns);
      event.dur_ns = static_cast<std::int64_t>(
          static_cast<double>(event.dur_ns) * ns_per_tick);
      out.push_back(event);
    }
    ring->collected = ring->total;
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a,
                                       const TraceEvent& b) {
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.dur_ns > b.dur_ns;  // enclosing span first
  });
  return out;
}

std::int64_t Tracer::dropped() const {
  TraceCore& core = trace_core();
  std::lock_guard<std::mutex> lock(core.mutex);
  std::int64_t dropped = 0;
  for (const auto& ring : core.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    const auto capacity = static_cast<std::int64_t>(ring->slots.size());
    const std::int64_t window_start =
        ring->total > capacity ? ring->total - capacity : 0;
    // Everything before the current window that no collect() copied.
    dropped += window_start > ring->collected ? window_start - ring->collected
                                              : 0;
  }
  return dropped;
}

void Tracer::clear() {
  TraceCore& core = trace_core();
  std::lock_guard<std::mutex> lock(core.mutex);
  for (const auto& ring : core.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->total = 0;
    ring->collected = 0;
  }
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<TraceEvent> events = collect();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) os << ",";
    first = false;
    // ts/dur are microseconds in the trace-event format; keep ns precision
    // via fractional µs. Names are literals from our own call sites —
    // escaping is for robustness, not expectation.
    os << "{\"name\":\"";
    for (const char* p = event.name; *p != '\0'; ++p) {
      if (*p == '"' || *p == '\\') os << '\\';
      os << *p;
    }
    char times[96];
    std::snprintf(times, sizeof(times), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(event.ts_ns) / 1e3,
                  static_cast<double>(event.dur_ns) / 1e3);
    os << "\",\"cat\":\"evd\",\"ph\":\"X\"" << times
       << ",\"pid\":1,\"tid\":" << event.tid << ",\"args\":{\"depth\":"
       << event.depth << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
}

std::string Tracer::chrome_trace_json() const {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

}  // namespace evd::obs
