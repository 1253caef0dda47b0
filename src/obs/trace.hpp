// Span tracing (`evd::obs`): nestable named spans recorded into
// fixed-capacity per-thread ring buffers, exported as Chrome trace-event
// JSON (load it at https://ui.perfetto.dev or chrome://tracing).
//
// Hot-path discipline mirrors the runtime's zero-alloc sessions: a thread's
// ring is allocated once, on that thread's first span; recording a span is
// two raw cycle-counter reads (rdtsc / cntvct_el0 — a steady_clock read
// costs ~30 ns through the vDSO, an order of magnitude too much for
// per-event spans) plus one ring slot write under an uncontended per-ring
// mutex (the mutex exists for the collector, never for another recorder —
// rings are single-writer). Tick counts are calibrated against the steady
// clock once per collect(), so exported timestamps are nanoseconds even
// though the hot path never touches the kernel clock. When the ring wraps,
// the oldest spans are overwritten and counted as dropped; a trace is a
// window onto the recent past, not an unbounded log.
//
// Sites that fire once per op or per pump visit use the sampled form,
// Span(name, site): a per-thread SpanSite countdown records the first
// construction on each thread, then one in kSpanSampleEvery. A recorded span
// costs its ring-slot write (a cache miss once the serving working set has
// evicted the ring) on top of the tick reads and lock: about 170 ns of CPU
// under servebench's tenant_zipf (DESIGN.md §9). A skipped span reads no
// clock, takes no lock, writes no slot and leaves the nesting depth
// unchanged.
//
// Spans never feed back into computation, so tracing cannot perturb
// decision streams — the `runtime.obs_on_vs_off` oracle enforces exactly
// that, bitwise. With the EVD_OBS kill-switch off, constructing a Span is a
// single branch, and a sampled site's countdown does not advance.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace evd::obs {

/// One completed span ("X" phase in the Chrome trace-event format). `name`
/// must be a string literal (or otherwise outlive the tracer) — the hot
/// path stores the pointer, never copies.
struct TraceEvent {
  const char* name = nullptr;
  std::int64_t ts_ns = 0;   ///< Start, relative to the tracer epoch.
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;    ///< Dense per-thread id, registration order.
  std::uint32_t depth = 0;  ///< Nesting depth at record time.
};

class Tracer {
 public:
  static Tracer& instance();

  /// Ring capacity (spans) for threads that register *after* the call,
  /// rounded up to a power of two. Default 8192 per thread.
  void set_ring_capacity(Index spans);

  /// Copy out every recorded span, all threads, sorted by start time.
  std::vector<TraceEvent> collect() const;

  /// Spans overwritten before any collect() copied them.
  std::int64_t dropped() const;

  /// Forget everything recorded so far (rings stay allocated).
  void clear();

  /// Serialise collect() as Chrome trace-event JSON:
  /// {"traceEvents":[{"name":...,"ph":"X","ts":µs,"dur":µs,...}, ...]}.
  void write_chrome_trace(std::ostream& os) const;
  std::string chrome_trace_json() const;

  /// Nanoseconds since the tracer epoch (steady clock).
  static std::int64_t now_ns();
};

namespace detail {

/// Raw monotone tick counter — the span clock. On x86-64 this is rdtsc
/// (invariant TSC: constant-rate and core-synchronised on every CPU this
/// project targets); on AArch64 the generic counter-timer. The fallback is
/// the steady clock itself, which keeps the calibration in collect() an
/// identity. Ticks are meaningless until calibrated; only differences and
/// the per-collect tick→ns ratio are ever used.
inline std::uint64_t now_ticks() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return static_cast<std::uint64_t>(Tracer::now_ns());
#endif
}

void record_span(const char* name, std::uint64_t start_ticks,
                 std::uint64_t end_ticks);
std::uint32_t& span_depth() noexcept;

}  // namespace detail

/// A sampled span site records one construction in kSpanSampleEvery, as
/// the runtime stamps one op in kLatencySampleEvery for latency.
inline constexpr std::uint32_t kSpanSampleEvery = 16;

/// Countdown of one sampled span site. Declare it `thread_local` at the call
/// site, so each thread samples its own constructions without sharing a
/// cache line: the first construction on a thread is recorded, then every
/// kSpanSampleEvery-th.
class SpanSite {
 public:
  /// Advance the countdown; true when this construction is recorded.
  bool sample() noexcept {
    if (countdown_ != 0) {
      --countdown_;
      return false;
    }
    countdown_ = kSpanSampleEvery - 1;
    return true;
  }

 private:
  std::uint32_t countdown_ = 0;
};

/// RAII span: records [construction, destruction) under `name`. Cheap to
/// construct when disabled; safe to use on any thread.
class Span {
 public:
  explicit Span(const char* name) : name_(name) {
    if (enabled()) arm();
  }
  /// Sampled form for per-op and per-visit sites: records only the
  /// constructions `site` samples. Disabled obs leaves `site` untouched.
  Span(const char* name, SpanSite& site) : name_(name) {
    if (enabled() && site.sample()) arm();
  }
  ~Span() {
    if (!armed_) return;
    --detail::span_depth();
    detail::record_span(name_, start_ticks_, detail::now_ticks());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void arm() noexcept {
    start_ticks_ = detail::now_ticks();
    armed_ = true;
    ++detail::span_depth();
  }

  const char* name_;
  std::uint64_t start_ticks_ = 0;
  bool armed_ = false;
};

}  // namespace evd::obs
