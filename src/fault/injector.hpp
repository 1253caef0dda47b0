// Deterministic, seed-driven fault injection (`evd::fault::Injector`).
//
// Production code declares *named injection sites* at the points where a
// fault could plausibly enter the system (ingress corruption, op-apply
// exceptions, allocation failure). A test arms a site with a FaultPlan; the
// site then decides — deterministically, from (seed, visit counter) — which
// visits fire. Everything about a firing schedule is reproducible: no wall
// clock, no global RNG, no dependence on thread interleaving as long as the
// plan carries a `target` key (the runtime keys its sites by session id, and
// one worker owns a session per pump round, so the matching-visit counter is
// single-writer).
//
// Hot-path discipline mirrors evd::obs: when injection is disabled — the
// default, and the only state production ever runs in — every site check
// compiles to one relaxed atomic load and a predictable branch
// (bench_stream_throughput gates the overhead at <1%). Arming a site never
// happens concurrently with serving; the armed flag is the release/acquire
// boundary for the plan payload.
#pragma once

#include <atomic>
#include <string>
#include <string_view>

#include "common/types.hpp"
#include "events/event.hpp"

namespace evd::fault {

namespace detail {
/// Backs enabled(); defined in injector.cpp.
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Process-wide kill switch, default off. Inline, so a site on a disabled
/// injector costs one relaxed load and a branch at the call site.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

/// The fault classes the runtime's sites know how to manifest.
enum class FaultKind : std::uint8_t {
  None = 0,        ///< Site did not fire this visit.
  MalformedEvent,  ///< Corrupt coordinates to out-of-bounds values.
  OutOfOrderEvent, ///< Skew the timestamp backwards.
  DuplicateEvent,  ///< Enqueue the op twice.
  OverflowStorm,   ///< Enqueue a burst of copies (queue-overflow stress).
  ArenaExhaustion, ///< Raise std::bad_alloc from the op-apply path.
  SessionThrow,    ///< Raise evd::Error(InjectedFault) from op apply.
};

const char* fault_kind_name(FaultKind kind) noexcept;

struct FaultPlan {
  FaultKind kind = FaultKind::SessionThrow;
  /// Per-matching-visit fire probability; 1.0 fires every eligible visit.
  /// Draws come from splitmix64(seed, visit) — reproducible, not wall-clock.
  double probability = 1.0;
  /// Skip the first `after` matching visits before becoming eligible.
  Index after = 0;
  /// Stop after this many fires; <= 0 means unlimited.
  Index max_fires = 1;
  /// Only visits whose key equals this fire (-1 matches any key). The
  /// runtime passes the session id as the key, which also pins the visit
  /// counter to a single pump worker — the determinism requirement.
  std::int64_t target = -1;
  std::uint64_t seed = 1;
  /// OverflowStorm: extra copies enqueued beyond the original op.
  Index storm_extra = 8;
  /// OutOfOrderEvent: how far the timestamp is skewed backwards.
  TimeUs time_skew_us = 10000;
};

namespace detail {

struct SiteState {
  std::string name;
  std::atomic<bool> armed{false};
  FaultPlan plan;  ///< Written only while disarmed (armed is the fence).
  std::atomic<std::int64_t> visits{0};  ///< Matching visits since arm().
  std::atomic<std::int64_t> fires{0};

  FaultKind decide(std::int64_t key) noexcept;
};

}  // namespace detail

/// Cheap copyable handle to one injection site. Default-constructed handles
/// are inert. Obtained once at component construction (registry mutex), then
/// queried on the hot path.
class Site {
 public:
  Site() = default;

  /// The visit's fire decision. FaultKind::None when disabled, unarmed,
  /// key-filtered out, outside the after/max_fires window, or the
  /// probability draw misses.
  FaultKind fire(std::int64_t key = -1) noexcept {
    if (!enabled() || state_ == nullptr) return FaultKind::None;
    return state_->decide(key);
  }

  /// The armed plan's parameters (storm length, time skew). Only meaningful
  /// right after fire() returned non-None; the runtime is the sole reader.
  const FaultPlan& plan() const noexcept { return state_->plan; }

  bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class Injector;
  explicit Site(detail::SiteState* state) : state_(state) {}
  detail::SiteState* state_ = nullptr;
};

class Injector {
 public:
  static Injector& instance();

  /// Find-or-create the named site. Open-time cost (mutex + map); the
  /// returned handle is hot-path safe.
  Site site(std::string_view name);

  /// Install `plan` and arm the site. Resets its visit/fire counters so a
  /// schedule is reproducible from the moment of arming.
  void arm(std::string_view name, const FaultPlan& plan);

  void disarm(std::string_view name);

  /// Disarm every site and zero all counters. Does not touch enabled().
  void reset();

  /// Matching visits since the site was last armed (0 if never created).
  std::int64_t visits(std::string_view name) const;
  /// Fires since the site was last armed.
  std::int64_t fires(std::string_view name) const;

 private:
  Injector() = default;
  detail::SiteState* find(std::string_view name) const;

  struct Impl;
  Impl& impl() const;
};

/// RAII: arms one site (enabling injection process-wide) for a scope, then
/// disarms it and restores the previous enabled() flag. The shape every test
/// and oracle uses, so no fault schedule leaks across test cases.
class ScopedInjection {
 public:
  ScopedInjection(std::string_view site, const FaultPlan& plan)
      : site_(site), previous_(enabled()) {
    Injector::instance().arm(site_, plan);
    set_enabled(true);
  }
  ~ScopedInjection() {
    Injector::instance().disarm(site_);
    set_enabled(previous_);
  }
  ScopedInjection(const ScopedInjection&) = delete;
  ScopedInjection& operator=(const ScopedInjection&) = delete;

 private:
  std::string site_;
  bool previous_;
};

/// Deterministic event corruptions used by the runtime's ingress sites
/// (public so tests can predict the corrupted values exactly).
events::Event corrupt_malformed(events::Event e, std::uint64_t salt) noexcept;
events::Event corrupt_out_of_order(events::Event e, TimeUs skew) noexcept;

}  // namespace evd::fault
