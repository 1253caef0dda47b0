#include "sched/planner.hpp"

#include <algorithm>
#include <numeric>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "route/route.hpp"

namespace evd::sched {
namespace {

const ParadigmPlacement* placement_of(const Plan& plan,
                                      const std::string& paradigm) {
  for (const ParadigmPlacement& p : plan.placements) {
    if (p.paradigm == paradigm) return &p;
  }
  return nullptr;
}

/// Modeled work of one session's expected backlog under `placement`.
double backlog_us(const SessionProfile& profile,
                  const ParadigmPlacement* placement,
                  const CostModels& models) {
  return static_cast<double>(std::max<Index>(0, profile.queued_ops)) *
         per_op_cost_us(profile, placement, models);
}

/// Rule 1: per paradigm, in first-appearance order, the routable path that
/// prices that paradigm's backlog lowest. Default holds unless another path
/// is strictly cheaper: it is the path the pipeline's own heuristics tune.
std::vector<ParadigmPlacement> cheapest_paths(
    std::span<const SessionProfile> profiles, const CostModels& models) {
  std::vector<ParadigmPlacement> placements;
  for (const SessionProfile& profile : profiles) {
    const bool known =
        std::any_of(placements.begin(), placements.end(),
                    [&](const ParadigmPlacement& p) {
                      return p.paradigm == profile.paradigm;
                    });
    if (known) continue;
    ParadigmPlacement best{profile.paradigm};
    double best_us = 0.0;
    for (const route::PathId path :
         route::PathRegistry::instance().routable(profile.paradigm)) {
      const ParadigmPlacement candidate{profile.paradigm, path};
      double total_us = 0.0;
      for (const SessionProfile& other : profiles) {
        if (other.paradigm == profile.paradigm) {
          total_us += backlog_us(other, &candidate, models);
        }
      }
      if (path == route::PathId::Default || total_us < best_us) {
        best = candidate;
        best_us = total_us;
      }
    }
    placements.push_back(best);
  }
  return placements;
}

/// Rule 2: longest-processing-time-first partition into `region_count`
/// regions, each visited in id order. Regions left empty (possible only
/// when sessions carry no backlog) are dropped.
std::vector<PlanRegion> lpt_regions(std::span<const SessionProfile> profiles,
                                    const Plan& plan, Index region_count,
                                    const CostModels& models) {
  const size_t n = profiles.size();
  std::vector<double> load(n);
  for (size_t s = 0; s < n; ++s) {
    load[s] = backlog_us(profiles[s],
                         placement_of(plan, profiles[s].paradigm), models);
  }
  std::vector<Index> order(n);
  std::iota(order.begin(), order.end(), Index{0});
  std::stable_sort(order.begin(), order.end(), [&](Index a, Index b) {
    return load[static_cast<size_t>(a)] > load[static_cast<size_t>(b)];
  });
  std::vector<PlanRegion> regions(static_cast<size_t>(region_count));
  std::vector<double> region_load(regions.size(), 0.0);
  for (const Index s : order) {
    const auto least = static_cast<size_t>(
        std::min_element(region_load.begin(), region_load.end()) -
        region_load.begin());
    regions[least].sessions.push_back(s);
    region_load[least] += load[static_cast<size_t>(s)];
  }
  std::erase_if(regions,
                [](const PlanRegion& r) { return r.sessions.empty(); });
  for (PlanRegion& region : regions) {
    std::sort(region.sessions.begin(), region.sessions.end());
  }
  return regions;
}

}  // namespace

SessionProfile profile_for(const core::EventPipeline& pipeline,
                           const std::string& paradigm, Index queued_ops,
                           double activity) {
  SessionProfile profile;
  profile.paradigm = paradigm;
  profile.stages = pipeline.stream_stages();
  profile.queued_ops = queued_ops < 1 ? 1 : queued_ops;
  profile.activity = activity;
  return profile;
}

Plan build_plan(std::span<const SessionProfile> profiles,
                const CostModels& models, const PlanConfig& config) {
  const auto n = static_cast<Index>(profiles.size());
  // Rule 3 (one burst per plan) and the guard's baseline in one step.
  Plan round_robin = Plan::round_robin(n, config.region_count,
                                       config.burst_cap);
  round_robin.placements = cheapest_paths(profiles, models);
  round_robin.modeled_cost_us = plan_cost_us(round_robin, profiles, models);

  Plan lpt = round_robin;
  lpt.regions = lpt_regions(profiles, round_robin,
                            static_cast<Index>(round_robin.regions.size()),
                            models);
  lpt.modeled_cost_us = plan_cost_us(lpt, profiles, models);

  // Rule 4: never modeled worse than round-robin; ties keep round-robin.
  Plan chosen = lpt.modeled_cost_us < round_robin.modeled_cost_us
                    ? std::move(lpt)
                    : std::move(round_robin);
  return chosen;
}

Planner& Planner::instance() noexcept {
  static Planner planner;
  return planner;
}

Plan Planner::plan_for(std::span<const SessionProfile> profiles,
                       const PlanConfig& config) {
  static obs::Gauge cost = obs::gauge("evd_sched_plan_cost_us");
  Plan plan = build_plan(profiles, CostModels{}, config);
  cost.set(plan.modeled_cost_us);
  return plan;
}

}  // namespace evd::sched
