// Execution-plan representation for the cost-model-driven planner
// (`evd::sched`, DESIGN.md section 13).
//
// A Plan answers the four scheduling questions the SessionManager's blind
// round-robin never asks:
//
//   * thread-region assignment — which worker region owns which sessions
//     (one region is pumped by exactly one worker per round, preserving the
//     one-worker-per-session determinism contract);
//   * visit order — the order a region's worker visits its sessions within
//     a round;
//   * burst — how many queued ops each visit processes before yielding
//     (one value for every visit of the plan);
//   * execution path — which proved-equivalent kernel variant each
//     paradigm's sessions run (route/route.hpp).
//
// A plan holds only choices that change what executes: nothing in it is a
// modeled-only knob. With no installed plan the SessionManager still pumps
// through a Plan — Plan::round_robin — so there is one pump path.
//
// The equivalence contract — enforced bitwise by the
// sched.plan_vs_sequential oracles: a Plan redistributes and re-orders
// *visits*, never ops. Every session still applies its own ops in FIFO
// submission order on a single worker per round, so each session's decision
// stream is bit-for-bit the stream direct sequential feeding produces,
// whatever plan runs it. The route.* oracles hold every routable execution
// path to the same bitwise bar, so path placements keep the contract too.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "route/route.hpp"

namespace evd::sched {

/// Largest burst a plan may carry. Far above every burst the repo uses
/// (256), and small enough that `burst * coarsen_factor` in the pump cannot
/// overflow: a decoded frame with a larger burst is refused, not installed.
inline constexpr Index kMaxPlanBurst = Index{1} << 20;

/// The sessions one worker pumps each round, in visit order.
struct PlanRegion {
  std::vector<Index> sessions;
};

/// Execution path one paradigm's sessions run under the plan (see
/// route/route.hpp). SessionManager::set_plan applies it to the live
/// sessions; the route.* oracles hold every routable path to the bitwise
/// decision-stream contract, so a placement never changes what a session
/// computes. Default = the paradigm's built-in behavior.
struct ParadigmPlacement {
  std::string paradigm;  ///< SessionBaseConfig.paradigm label ("cnn", ...).
  route::PathId path = route::PathId::Default;
};

struct Plan {
  Index session_count = 0;
  Index burst = 1;  ///< Queued ops every visit processes, in [1, kMaxPlanBurst].
  std::vector<PlanRegion> regions;
  std::vector<ParadigmPlacement> placements;
  double modeled_cost_us = 0.0;  ///< Objective value of the chosen plan.

  /// Structural validity: every session 0..session_count-1 scheduled
  /// exactly once, burst in [1, kMaxPlanBurst], at least one region when
  /// any session exists, no empty region, at most one placement per
  /// paradigm, each placed path owned by its paradigm. On failure returns
  /// false and (when `why` is non-null) says what broke.
  bool validate(std::string* why = nullptr) const;

  /// FNV-1a over the serialized bytes — stable across platforms.
  std::uint64_t fingerprint() const;

  /// Human-readable one-plan summary (tests, golden snapshots, logs).
  std::string describe() const;

  /// Checkpoint-framed serialization (fault/checkpoint.hpp writer/reader,
  /// own magic + version) so a plan rides inside the existing
  /// checkpoint/restore machinery and restored managers resume under the
  /// same plan. deserialize() throws Error(CheckpointMismatch/Corrupt) on
  /// bad bytes and re-validates the decoded plan.
  void serialize(std::vector<std::uint8_t>& out) const;
  static Plan deserialize(std::span<const std::uint8_t> bytes);

  /// The do-nothing-clever baseline: sessions dealt round-robin across
  /// `regions` regions (session s -> region s % regions, preserving id
  /// order within each region), `burst` clamped to [1, kMaxPlanBurst], no
  /// placements. The SessionManager pumps this plan whenever none is
  /// installed.
  static Plan round_robin(Index session_count, Index region_count,
                          Index burst);
};

bool operator==(const Plan& a, const Plan& b);
inline bool operator!=(const Plan& a, const Plan& b) { return !(a == b); }

}  // namespace evd::sched
