// Plan objective: modeled serving makespan of one backlog drain, priced
// through the evd::hw accelerator models.
//
// The planner does not predict wall time — it *ranks* candidate plans on
// the same hardware cost models the paper's Table I comparisons rest on.
// The objective simulates the pump loop's structure exactly:
//
//   round time(region) = sum over entries with backlog of
//                          visit_overhead_us + served_ops * per_op_cost_us
//   round makespan     = max over regions      (workers run regions in
//                                               parallel, rounds barrier)
//   plan cost          = sum over rounds of (round_overhead_us + makespan)
//                        until every backlog drains
//
// per_op_cost_us prices a session's declared stage chain (core/stages.hpp)
// duty-weighted, stage by stage, on its paradigm's model: the systolic
// array for the CNN (and any unknown paradigm), the digital neuromorphic
// core for the SNN, the 16-lane gather-apply engine for the GNN. The
// placed execution path reshapes the declared work before pricing.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/stages.hpp"
#include "hw/gnn_accel.hpp"
#include "hw/snn_core.hpp"
#include "hw/systolic.hpp"
#include "sched/plan.hpp"

namespace evd::sched {

/// What the planner knows about one managed session: its paradigm label,
/// the pipeline's declared stage chain, and the expected backlog (ops per
/// planning quantum) — the workload-mix axis the planner balances.
struct SessionProfile {
  std::string paradigm;  ///< "cnn" / "snn" / "gnn" (SessionBaseConfig label).
  std::vector<core::StageInfo> stages;
  Index queued_ops = 64;
  /// Fraction of the paradigm's nominal dense work that is live on this
  /// session's input (1.0 = fully dense). Activity-scaled execution paths
  /// (sparse conv, event-driven stepping — route::CostShape) price their
  /// compute and parameter traffic against this; clamped to [0.05, 1] so a
  /// silent stream can never model a free path.
  double activity = 1.0;
};

/// Cost-model parameter set: one accelerator config per paradigm plus the
/// scheduling constants. Defaults model a single edge SoC hosting all
/// three accelerator families.
struct CostModels {
  hw::SystolicConfig systolic;                  ///< CNN (and unknown).
  hw::SnnCoreConfig snn_core;                   ///< SNN, digital core.
  hw::GnnAccelConfig gnn_accel{.mac_lanes = 16};  ///< GNN.
  double visit_overhead_us = 0.5;  ///< Scheduling cost per region visit.
  /// Fork-join cost of one pump() round (the pool dispatch + barrier every
  /// round pays regardless of how little it serves). This is what makes
  /// burst size a real decision: tiny bursts minimise per-round makespan
  /// imbalance but multiply the round count, and the round overhead is how
  /// the model sees that trade.
  double round_overhead_us = 10.0;
  /// Host workers available to pump regions. plan_cost_us models the
  /// executor's static region->worker assignment (region r on worker
  /// r % W, W = min(regions, host_workers)) instead of assuming every
  /// region gets its own core. 0 = resolve from the live pool
  /// (par::thread_count()) at costing time; tests and golden snapshots pin
  /// an explicit value so fingerprints do not depend on the build host.
  Index host_workers = 0;
  /// Compute/traffic multiplier a FullSweep path (route::CostShape) pays
  /// relative to the declared per-op counters: the batch message pass
  /// re-touches the whole graph per event where the declared counters
  /// describe the incremental frontier.
  double full_sweep_factor = 8.0;
};

/// Price `work` (a duty-weighted OpCounter) on `paradigm`'s model.
double model_latency_us(const nn::OpCounter& work, std::string_view paradigm,
                        const CostModels& models);

/// Modeled cost of one op flowing through `profile`'s stage chain under
/// `placement`'s execution path. Sessions whose paradigm has no placement
/// are priced on the Default path.
double per_op_cost_us(const SessionProfile& profile,
                      const ParadigmPlacement* placement,
                      const CostModels& models);

/// The plan objective (see file comment). `profiles[i]` describes session
/// i; profiles.size() must equal plan.session_count.
double plan_cost_us(const Plan& plan,
                    std::span<const SessionProfile> profiles,
                    const CostModels& models);

}  // namespace evd::sched
