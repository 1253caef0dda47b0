// Plan selection front door: profile extraction and the closed-form
// planner (DESIGN.md section 13).
//
// A plan is built directly from the session profiles, priced with
// per_op_cost_us — no search, no cache:
//
//   1. paths   — per paradigm (first-appearance order), the routable path
//                with the lowest sum of queued_ops * per-op cost over that
//                paradigm's sessions; Default unless another is strictly
//                cheaper;
//   2. regions — longest-processing-time-first: R = min(n, region_count)
//                regions, sessions by descending queued_ops * op price (ties
//                by id) each to the least-loaded region (ties to the lowest
//                index), visited in id order within a region;
//   3. burst   — every visit gets config.burst_cap;
//   4. guard   — the cheaper of that plan and Plan::round_robin with the
//                same placements under plan_cost_us, ties to round-robin,
//                so a plan is never modeled worse than round-robin.
//
// Everything here is deterministic: the same profiles, cost models and
// config give the same plan on every platform and thread count.
#pragma once

#include <span>

#include "sched/cost.hpp"
#include "sched/plan.hpp"

namespace evd::core {
class EventPipeline;
}

namespace evd::sched {

struct PlanConfig {
  Index region_count = 4;  ///< Worker regions to plan for (pool size).
  Index burst_cap = 8;     ///< Burst of every visit.
};

/// Kept because servebench/ calls it; drop with the next benchmark change.
using AnnealerConfig = PlanConfig;

/// Build a session profile from a pipeline's declared stages. `paradigm`
/// is the SessionBaseConfig label ("cnn"/"snn"/"gnn"); `queued_ops` the
/// expected backlog per planning quantum (the workload-mix axis);
/// `activity` the live fraction of the paradigm's nominal dense work on
/// this population's input (see SessionProfile.activity — what the
/// activity-scaled execution paths are priced against).
SessionProfile profile_for(const core::EventPipeline& pipeline,
                           const std::string& paradigm, Index queued_ops,
                           double activity = 1.0);

/// The closed-form plan for `profiles` under `models` (see file comment).
/// Out-of-range config values clamp as in Plan::round_robin.
Plan build_plan(std::span<const SessionProfile> profiles,
                const CostModels& models, const PlanConfig& config);

class Planner {
 public:
  /// Kept because servebench/ calls it; the planner holds no state.
  static Planner& instance() noexcept;

  /// build_plan on the default CostModels; exports the chosen plan's cost
  /// as the evd_sched_plan_cost_us gauge.
  Plan plan_for(std::span<const SessionProfile> profiles,
                const PlanConfig& config = {});

  /// Kept because servebench/ calls it; there is no cache to clear.
  void clear_cache() noexcept {}
};

}  // namespace evd::sched
