// Admission control and graceful degradation for the serving runtime.
//
// Two mechanisms sit in front of every managed session's EventQueue:
//
//  * Per-session token bucket, refilled by *stream time* (event timestamps),
//    not wall clock — the admission decision for a given op stream is a pure
//    function of the stream, so rate-limited serving is as deterministic and
//    replayable as unlimited serving.
//
//  * A global overload ladder driven by aggregate queue occupancy. Each rung
//    sheds progressively more load, in order of how much the shed decision
//    costs the consumer:
//
//      Nominal        -> everything admitted
//      ShedSampling   -> stop stamping latency samples (observability pays
//                        first; decisions unaffected)
//      CoarsenBursts  -> pump() multiplies its burst, trading interleaving
//                        fairness for per-round throughput (op order per
//                        session is unchanged, so decision streams are too)
//      DropNoise      -> feeds to low-priority sessions that fail a cheap
//                        spatio-temporal support test are shed
//      RejectAdmits   -> all feeds rejected; advances still run so sessions
//                        keep making (empty-input) progress
//
// Every shed is accounted — SessionManager::stats() exposes the ledger; a
// shed the operator cannot see is indistinguishable from data corruption.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/types.hpp"
#include "events/event.hpp"

namespace evd::fault {

/// `later - earlier` for earlier <= later, exact over the whole TimeUs range:
/// the signed difference of two untrusted timestamps can overflow.
inline std::uint64_t elapsed_us(TimeUs earlier, TimeUs later) noexcept {
  return static_cast<std::uint64_t>(later) -
         static_cast<std::uint64_t>(earlier);
}

/// Stream-time token bucket. rate <= 0 disables (always admits).
class TokenBucket {
 public:
  void configure(double rate_per_s, double burst) noexcept {
    rate_per_s_ = rate_per_s;
    burst_ = burst < 1.0 ? 1.0 : burst;
    tokens_ = burst_;
    primed_ = false;
  }

  /// Admit one op at stream time `t`. Refills from the time elapsed since
  /// the previous admission attempt; a stalled stream earns no tokens.
  bool take(TimeUs t) noexcept {
    if (rate_per_s_ <= 0.0) return true;
    if (!primed_) {
      primed_ = true;
      last_t_ = t;
    }
    if (t > last_t_) {
      tokens_ +=
          rate_per_s_ * static_cast<double>(elapsed_us(last_t_, t)) * 1e-6;
      if (tokens_ > burst_) tokens_ = burst_;
      last_t_ = t;
    }
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double tokens() const noexcept { return tokens_; }

 private:
  double rate_per_s_ = 0.0;
  double burst_ = 1.0;
  double tokens_ = 0.0;
  TimeUs last_t_ = 0;
  bool primed_ = false;
};

enum class DegradationLevel : std::uint8_t {
  Nominal = 0,
  ShedSampling,
  CoarsenBursts,
  DropNoise,
  RejectAdmits,
};

const char* degradation_level_name(DegradationLevel level) noexcept;

struct AdmissionConfig {
  /// Master switch: disabled (default) admits everything — the overload
  /// ladder never perturbs a deployment that has not opted in, which is how
  /// the determinism oracles keep holding unchanged.
  bool enabled = false;
  /// Occupancy thresholds (aggregate queued ops / aggregate capacity) at
  /// which each rung engages. Must be non-decreasing.
  double shed_sampling_at = 0.50;
  double coarsen_at = 0.70;
  double drop_noise_at = 0.85;
  double reject_at = 0.95;
  /// Burst multiplier while CoarsenBursts (or worse) is active.
  Index coarsen_factor = 4;
};

/// DropNoise applies only to sessions with priority <= this.
inline constexpr Index kShedPriorityMax = 0;
/// Support window for the noise test: an event with no recent activity in
/// its own or 4-adjacent coarse cells within this window is "noise".
inline constexpr TimeUs kNoiseSupportWindowUs = 5000;

/// Map aggregate occupancy to a ladder rung.
DegradationLevel degradation_level(const AdmissionConfig& config,
                                   double occupancy) noexcept;

/// Cheap, geometry-free noise classifier: a coarse (x>>2, y>>2) grid of
/// last-activity timestamps, folded into a fixed 64x64 table. An event is
/// "supported" when its own or a 4-adjacent cell saw activity within the
/// window — the same spatio-temporal support idea as the full
/// background-activity filter (events/filters.hpp), collapsed to O(1) state
/// so it can run per-submit in front of the queue. Every observed event
/// warms the table whether or not shedding is active, so the classifier is
/// not cold when overload hits.
///
/// The table is 32 KiB and the constructor writes all of it, so a
/// SessionManager slot carries a gate only once admission has been enabled
/// (made in set_admission() or add(), never on submit) and keeps it across
/// a disable, warm for the next enable.
class NoiseGate {
 public:
  NoiseGate() { last_.fill(kNever); }

  /// Record activity and report whether the event had support.
  bool observe(const events::Event& e, TimeUs window) noexcept {
    const Index cx = cell_coord(e.x);
    const Index cy = cell_coord(e.y);
    bool supported = false;
    supported |= recent(cx, cy, e.t, window);
    supported |= recent(cx - 1, cy, e.t, window);
    supported |= recent(cx + 1, cy, e.t, window);
    supported |= recent(cx, cy - 1, e.t, window);
    supported |= recent(cx, cy + 1, e.t, window);
    last_[index(cx, cy)] = e.t;
    return supported;
  }

 private:
  static constexpr Index kGrid = 64;
  static constexpr TimeUs kNever = std::numeric_limits<TimeUs>::min();

  static Index cell_coord(Index v) noexcept { return (v >> 2) & (kGrid - 1); }
  static std::size_t index(Index cx, Index cy) noexcept {
    return static_cast<std::size_t>(((cy & (kGrid - 1)) * kGrid) +
                                    (cx & (kGrid - 1)));
  }
  bool recent(Index cx, Index cy, TimeUs t, TimeUs window) const noexcept {
    const TimeUs last = last_[index(cx, cy)];
    return last != kNever && t >= last && window >= 0 &&
           elapsed_us(last, t) <= static_cast<std::uint64_t>(window);
  }

  std::array<TimeUs, kGrid * kGrid> last_;
};

}  // namespace evd::fault
