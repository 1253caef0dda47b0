#include "sched/annealer.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "route/route.hpp"

namespace evd::sched {
namespace {

/// e^-r approximated with +,*,/ only (2nd-order Padé-style denominator):
/// monotone decreasing in r on [0, inf), 1 at r = 0 — the properties the
/// Metropolis rule needs — and bitwise identical on every platform, which
/// std::exp is not required to be.
double accept_probability(double delta, double temperature) {
  if (delta <= 0.0) return 1.0;
  if (temperature <= 0.0) return 0.0;
  const double r = delta / temperature;
  return 1.0 / (1.0 + r + 0.5 * r * r);
}

/// Deduplicated paradigms of `profiles`, in first-appearance order, each
/// on its Default path.
std::vector<ParadigmPlacement> default_placements(
    std::span<const SessionProfile> profiles) {
  std::vector<ParadigmPlacement> placements;
  for (const SessionProfile& profile : profiles) {
    const bool known =
        std::any_of(placements.begin(), placements.end(),
                    [&](const ParadigmPlacement& p) {
                      return p.paradigm == profile.paradigm;
                    });
    if (!known) placements.push_back({profile.paradigm});
  }
  return placements;
}

struct MoveContext {
  Plan& plan;
  Rng& rng;
};

/// Move kind 0: relocate one entry to another region (at a drawn position).
bool move_relocate(MoveContext& ctx) {
  if (ctx.plan.regions.size() < 2) return false;
  const auto from =
      static_cast<size_t>(ctx.rng.uniform_int(ctx.plan.regions.size()));
  auto& src = ctx.plan.regions[from].entries;
  if (src.size() < 2) return false;  // regions must stay non-empty
  auto to = static_cast<size_t>(ctx.rng.uniform_int(ctx.plan.regions.size() - 1));
  if (to >= from) ++to;  // uniform over the *other* regions
  auto& dst = ctx.plan.regions[to].entries;
  const auto at = static_cast<size_t>(ctx.rng.uniform_int(src.size()));
  const PlanEntry entry = src[at];
  src.erase(src.begin() + static_cast<std::ptrdiff_t>(at));
  const auto pos = static_cast<size_t>(ctx.rng.uniform_int(dst.size() + 1));
  dst.insert(dst.begin() + static_cast<std::ptrdiff_t>(pos), entry);
  return true;
}

/// Move kind 1: swap two visit positions within one region.
bool move_swap_within(MoveContext& ctx) {
  if (ctx.plan.regions.empty()) return false;
  auto& entries =
      ctx.plan.regions[static_cast<size_t>(
                           ctx.rng.uniform_int(ctx.plan.regions.size()))]
          .entries;
  if (entries.size() < 2) return false;
  const auto a = static_cast<size_t>(ctx.rng.uniform_int(entries.size()));
  auto b = static_cast<size_t>(ctx.rng.uniform_int(entries.size() - 1));
  if (b >= a) ++b;
  std::swap(entries[a], entries[b]);
  return true;
}

/// Move kind 2: swap two entries across two regions (balances load without
/// changing region sizes).
bool move_swap_across(MoveContext& ctx) {
  if (ctx.plan.regions.size() < 2) return false;
  const auto ra =
      static_cast<size_t>(ctx.rng.uniform_int(ctx.plan.regions.size()));
  auto rb =
      static_cast<size_t>(ctx.rng.uniform_int(ctx.plan.regions.size() - 1));
  if (rb >= ra) ++rb;
  auto& ea = ctx.plan.regions[ra].entries;
  auto& eb = ctx.plan.regions[rb].entries;
  const auto a = static_cast<size_t>(ctx.rng.uniform_int(ea.size()));
  const auto b = static_cast<size_t>(ctx.rng.uniform_int(eb.size()));
  std::swap(ea[a], eb[b]);
  return true;
}

/// Move kind 3: re-draw one entry's burst in [1, burst_cap].
bool move_burst(MoveContext& ctx) {
  if (ctx.plan.regions.empty() || ctx.plan.burst_cap < 2) return false;
  auto& entries =
      ctx.plan.regions[static_cast<size_t>(
                           ctx.rng.uniform_int(ctx.plan.regions.size()))]
          .entries;
  auto& entry = entries[static_cast<size_t>(ctx.rng.uniform_int(entries.size()))];
  const Index burst =
      1 + static_cast<Index>(
              ctx.rng.uniform_int(static_cast<std::uint64_t>(ctx.plan.burst_cap)));
  if (burst == entry.burst) return false;
  entry.burst = burst;
  return true;
}

/// Move kind 4: re-draw one paradigm's execution path among its routable
/// set — Default plus the variants whose route.* equivalence oracle has
/// marked them proved (PathRegistry). The annealer can therefore explore
/// the paper's dense-vs-event-driven dichotomy, but only over paths whose
/// decision streams are pinned bitwise-identical to the default.
bool move_path(MoveContext& ctx) {
  if (ctx.plan.placements.empty()) return false;
  auto& p = ctx.plan.placements[static_cast<size_t>(
      ctx.rng.uniform_int(ctx.plan.placements.size()))];
  const std::vector<route::PathId> routable =
      route::PathRegistry::instance().routable(p.paradigm);
  if (routable.size() < 2) return false;  // only Default: nothing to draw
  const route::PathId drawn =
      routable[static_cast<size_t>(ctx.rng.uniform_int(routable.size()))];
  if (drawn == p.path) return false;
  p.path = drawn;
  return true;
}

}  // namespace

AnnealResult anneal_plan(std::span<const SessionProfile> profiles,
                         const CostModels& models,
                         const AnnealerConfig& config) {
  const auto n = static_cast<Index>(profiles.size());
  AnnealResult result;
  // Start from a round-robin deal so the search can only improve on it.
  Plan current = Plan::round_robin(
      n, config.region_count,
      std::clamp<Index>(3, 1, std::max<Index>(1, config.burst_cap)));
  current.burst_cap = std::max<Index>(1, config.burst_cap);
  current.placements = default_placements(profiles);
  current.seed = config.seed;
  if (std::string why; !current.validate(&why)) {
    throw Error(ErrorCode::InvalidArgument, "anneal_plan: seed plan: " + why);
  }
  const double initial_cost = plan_cost_us(current, profiles, models);
  result.initial_cost_us = initial_cost;

  Plan best = current;
  double best_cost = initial_cost;

  // The cooling schedule is effectively greedy once the temperature has
  // decayed (0.985^300 ~ 1%), so each walk freezes into whichever basin its
  // early accepted moves picked. Independent restarts — each a fresh walk
  // from the round-robin start with a decorrelated rng — turn "one walk got
  // stuck" from a plan-quality cliff into a per-walk coin toss the best-of
  // reduction absorbs. Walk 0 uses config.seed itself, so restarts = 1 is
  // bit-for-bit the historical single-walk search.
  const Index restarts = std::max<Index>(1, config.restarts);
  for (Index walk = 0; walk < restarts; ++walk) {
    Plan current_walk = current;
    double current_cost = initial_cost;
    Rng rng(config.seed +
            0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(walk));
    double temperature =
        config.initial_temperature * std::max(initial_cost, 1e-9);
    for (Index it = 0; it < config.iterations;
         ++it, temperature *= config.cooling) {
      Plan candidate = current_walk;
      MoveContext ctx{candidate, rng};
      bool changed = false;
      switch (rng.uniform_int(5)) {
        case 0: changed = move_relocate(ctx); break;
        case 1: changed = move_swap_within(ctx); break;
        case 2: changed = move_swap_across(ctx); break;
        case 3: changed = move_burst(ctx); break;
        case 4: changed = move_path(ctx); break;
      }
      if (!changed) continue;
      ++result.proposed;
      const double candidate_cost = plan_cost_us(candidate, profiles, models);
      const double p =
          accept_probability(candidate_cost - current_cost, temperature);
      if (p >= 1.0 || rng.uniform() < p) {
        current_walk = std::move(candidate);
        current_cost = candidate_cost;
        ++result.accepted;
        if (current_cost < best_cost) {
          best = current_walk;
          best_cost = current_cost;
        }
        result.trajectory.push_back(best_cost);
      }
    }
  }
  // A non-default execution path must pay for itself: the cost model prices
  // AsDeclared variants identically to Default, so the Metropolis walk can
  // leave cost-tied flips (e.g. cnn.direct) in the winning plan. At runtime
  // the default path is the one the pipeline's own heuristics optimize, so
  // any placement whose path does not strictly beat Default reverts.
  for (ParadigmPlacement& p : best.placements) {
    if (p.path == route::PathId::Default) continue;
    const route::PathId routed = p.path;
    p.path = route::PathId::Default;
    const double default_cost = plan_cost_us(best, profiles, models);
    if (default_cost <= best_cost) {
      best_cost = default_cost;
    } else {
      p.path = routed;
    }
  }
  // Keep the documented trajectory invariants (monotone non-increasing,
  // last element == modeled_cost_us) if the revert lowered the cost.
  if (!result.trajectory.empty() && result.trajectory.back() != best_cost) {
    result.trajectory.push_back(best_cost);
  }
  best.modeled_cost_us = best_cost;
  best.seed = config.seed;
  best.refresh_labels();
  result.plan = std::move(best);
  return result;
}

}  // namespace evd::sched
