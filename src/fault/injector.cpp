#include "fault/injector.hpp"

#include <deque>
#include <mutex>

#include "common/rng.hpp"

namespace evd::fault {

std::atomic<bool> detail::g_enabled{false};

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::None: return "None";
    case FaultKind::MalformedEvent: return "MalformedEvent";
    case FaultKind::OutOfOrderEvent: return "OutOfOrderEvent";
    case FaultKind::DuplicateEvent: return "DuplicateEvent";
    case FaultKind::OverflowStorm: return "OverflowStorm";
    case FaultKind::ArenaExhaustion: return "ArenaExhaustion";
    case FaultKind::SessionThrow: return "SessionThrow";
  }
  return "Unknown";
}

namespace detail {

FaultKind SiteState::decide(std::int64_t key) noexcept {
  if (!armed.load(std::memory_order_acquire)) return FaultKind::None;
  // `plan` is only written while disarmed; the acquire above pairs with the
  // release store in arm(), so reading it here is race-free.
  if (plan.target >= 0 && key != plan.target) return FaultKind::None;
  const std::int64_t visit = visits.fetch_add(1, std::memory_order_relaxed);
  if (visit < plan.after) return FaultKind::None;
  if (plan.max_fires > 0 &&
      fires.load(std::memory_order_relaxed) >= plan.max_fires) {
    return FaultKind::None;
  }
  if (plan.probability < 1.0) {
    // Counter-indexed hash: visit v fires iff splitmix64(seed + v) lands
    // under probability. Stateless per visit, so the schedule is a pure
    // function of (seed, visit index) — shrinking and replay both hold.
    std::uint64_t state =
        plan.seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(visit + 1);
    const std::uint64_t h = splitmix64(state);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u >= plan.probability) return FaultKind::None;
  }
  fires.fetch_add(1, std::memory_order_relaxed);
  return plan.kind;
}

}  // namespace detail

struct Injector::Impl {
  mutable std::mutex mutex;
  // deque: stable addresses for Site handles across site() registrations.
  std::deque<detail::SiteState> sites;
};

Injector::Impl& Injector::impl() const {
  static Impl instance;
  return instance;
}

Injector& Injector::instance() {
  static Injector injector;
  return injector;
}

detail::SiteState* Injector::find(std::string_view name) const {
  for (auto& site : impl().sites) {
    if (site.name == name) return &site;
  }
  return nullptr;
}

Site Injector::site(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  if (detail::SiteState* existing = find(name)) return Site(existing);
  impl().sites.emplace_back();
  impl().sites.back().name = std::string(name);
  return Site(&impl().sites.back());
}

void Injector::arm(std::string_view name, const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  detail::SiteState* state = find(name);
  if (state == nullptr) {
    impl().sites.emplace_back();
    impl().sites.back().name = std::string(name);
    state = &impl().sites.back();
  }
  state->armed.store(false, std::memory_order_release);
  state->plan = plan;
  state->visits.store(0, std::memory_order_relaxed);
  state->fires.store(0, std::memory_order_relaxed);
  state->armed.store(true, std::memory_order_release);
}

void Injector::disarm(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl().mutex);
  if (detail::SiteState* state = find(name)) {
    state->armed.store(false, std::memory_order_release);
  }
}

void Injector::reset() {
  std::lock_guard<std::mutex> lock(impl().mutex);
  for (auto& site : impl().sites) {
    site.armed.store(false, std::memory_order_release);
    site.visits.store(0, std::memory_order_relaxed);
    site.fires.store(0, std::memory_order_relaxed);
  }
}

std::int64_t Injector::visits(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl().mutex);
  const detail::SiteState* state = find(name);
  return state != nullptr ? state->visits.load(std::memory_order_relaxed) : 0;
}

std::int64_t Injector::fires(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl().mutex);
  const detail::SiteState* state = find(name);
  return state != nullptr ? state->fires.load(std::memory_order_relaxed) : 0;
}

events::Event corrupt_malformed(events::Event e, std::uint64_t salt) noexcept {
  // Far out of any plausible geometry, sign-flipped by the salt so both
  // negative and large-positive malformations are exercised.
  std::uint64_t state = salt;
  const std::uint64_t h = splitmix64(state);
  e.x = (h & 1) != 0 ? std::int16_t{-1} : std::int16_t{0x7FFF};
  e.y = (h & 2) != 0 ? std::int16_t{-2} : std::int16_t{0x7FFE};
  return e;
}

events::Event corrupt_out_of_order(events::Event e, TimeUs skew) noexcept {
  e.t = e.t >= skew ? e.t - skew : -1;
  return e;
}

}  // namespace evd::fault
