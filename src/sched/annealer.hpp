// Simulated-annealing search over the Plan space (DESIGN.md section 13;
// SET-style neighbourhood moves on a scheduling table).
//
// The search is deliberately boring where it matters:
//
//   * fully deterministic — one evd::Rng seeded from the config, no time,
//     no thread-dependent state. Same seed + same profiles => bitwise the
//     same plan whatever evd::par's pool size is (the annealer itself is
//     single-threaded; the property suite pins this);
//   * libm-free acceptance — the Metropolis exp() is replaced by the
//     rational approximation 1 / (1 + r + r^2/2) of e^-r, computed with
//     only +,*,/ so no libm implementation difference can flip an accept
//     decision and restructure a golden plan across platforms;
//   * geometric cooling — T *= cooling each iteration from
//     initial_temperature (a fraction of the starting cost, so acceptance
//     behaves identically across workloads of different magnitude);
//   * deterministic restarts — `restarts` independent walks from the same
//     round-robin start, seeds derived from config.seed by a golden-ratio
//     stride; the best plan across walks wins, which keeps one frozen walk
//     from dictating the answer.
//
// Neighbour moves (uniformly chosen): move a session to another region,
// swap two visit positions within a region, swap two entries across
// regions, re-draw one entry's burst, re-draw a paradigm's execution path.
// Every proposed plan satisfies Plan::validate() by construction.
#pragma once

#include <span>
#include <vector>

#include "sched/cost.hpp"
#include "sched/plan.hpp"

namespace evd::sched {

struct AnnealerConfig {
  std::uint64_t seed = 1;
  Index iterations = 600;
  double initial_temperature = 0.25;  ///< Fraction of the starting cost.
  double cooling = 0.985;             ///< Geometric per-iteration factor.
  Index region_count = 4;  ///< Worker regions to plan for (pool size).
  Index burst_cap = 8;     ///< Largest per-visit burst the search may pick.
  /// Independent Metropolis walks; the best plan across all of them wins.
  /// The geometric cooling schedule is effectively greedy after a few
  /// hundred iterations, so a single walk can freeze into a poor local
  /// optimum on lopsided populations — restarts decorrelate the walks
  /// (each gets its own seed derived from `seed`) while staying fully
  /// deterministic. Walk 0 reproduces the single-walk trajectory exactly.
  Index restarts = 4;
};

struct AnnealResult {
  Plan plan;  ///< Best plan visited; modeled_cost_us/seed filled in.
  /// Best-so-far modeled cost recorded after every *accepted* move —
  /// monotone non-increasing by construction (the property suite checks
  /// it), and its last element equals plan.modeled_cost_us.
  std::vector<double> trajectory;
  Index proposed = 0;
  Index accepted = 0;
  double initial_cost_us = 0.0;  ///< Cost of the round-robin start plan.
};

AnnealResult anneal_plan(std::span<const SessionProfile> profiles,
                         const CostModels& models,
                         const AnnealerConfig& config);

}  // namespace evd::sched
