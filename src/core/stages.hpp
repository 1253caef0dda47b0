// Declared streaming-stage structure of an EventPipeline — the planning
// surface the execution planner (evd::sched) searches over.
//
// A pipeline's streaming path is a short linear dataflow of stages (the same
// ones its sessions wrap in obs spans: accumulate -> representation -> conv
// for the CNN, encode -> lif step for the SNN, graph insert -> message pass
// for the GNN). The planner needs a *planning estimate* of the work one
// queued op causes at each stage, as an nn::OpCounter the evd::hw cost
// models can price. These are analytic estimates derived from the
// pipeline's configuration — dimensions, hidden sizes, neighbour caps — not
// measured counters: the planner ranks candidate plans, it does not predict
// wall time.
//
// Stages never constrain *execution semantics*: every session applies its
// ops in submission order whatever the plan says. Ordering decisions change
// the modeled cost and the obs span labelling, not the arithmetic — that is
// the planner's equivalence contract, enforced bitwise by the
// sched.plan_vs_sequential oracles. The one degree of freedom a plan DOES
// exercise inside a session is the execution path (route/route.hpp): a
// placement may select among proved-equivalent kernel variants for the
// session's paradigm, and the route.* oracles hold those to the same
// bitwise bar, so the contract survives routing unchanged.
#pragma once

#include <string>
#include <vector>

#include "nn/counters.hpp"

namespace evd::core {

struct StageInfo {
  /// Stable stage name, prefixed with the paradigm ("cnn.conv_forward") —
  /// matches the obs span the stage runs under where one exists.
  std::string name;
  /// Modeled work per op that *reaches* the stage (see duty).
  nn::OpCounter per_op;
  /// Fraction of queued ops that actually run the stage. Amortised stages
  /// (a frame close, a timestep tick) declare the nominal ops-per-firing
  /// the pipeline expects, e.g. duty = 1/256 for "fires every ~256 events".
  double duty = 1.0;
};

}  // namespace evd::core
