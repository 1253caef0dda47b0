#include "sched/cost.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "route/route.hpp"

namespace evd::sched {
namespace {

/// Scale a stage's per-op counter by its duty cycle. Counters are integral;
/// the planner works in expected ops, so scale in double and round to
/// nearest — the models only see aggregated counts.
nn::OpCounter scaled(const nn::OpCounter& c, double duty) {
  const auto s = [duty](std::int64_t v) {
    return static_cast<std::int64_t>(static_cast<double>(v) * duty + 0.5);
  };
  nn::OpCounter out;
  out.mults = s(c.mults);
  out.adds = s(c.adds);
  out.comparisons = s(c.comparisons);
  out.zero_skippable_mults = s(c.zero_skippable_mults);
  out.param_bytes_read = s(c.param_bytes_read);
  out.act_bytes_read = s(c.act_bytes_read);
  out.act_bytes_written = s(c.act_bytes_written);
  out.state_bytes_rw = s(c.state_bytes_rw);
  return out;
}

/// Re-price a stage's work for the placement's execution path.
/// The declared counters describe the paradigm's default path; the other
/// routable paths are the paper's dichotomy made searchable:
///
///   * ActivityScaled (sparse conv, event-driven stepping) — compute and
///     parameter traffic shrink to the live fraction of the input, but
///     every skipped operand still pays its zero test (one comparison per
///     declared mult), so dense inputs price *worse* than the default.
///   * FullSweep (batch message pass) — everything the declared counters
///     touch is re-touched for the whole state, modeled as a constant
///     factor over the frontier counters.
nn::OpCounter shape_for_path(const nn::OpCounter& c, route::CostShape shape,
                             double activity, const CostModels& models) {
  const auto s = [](double v) {
    return static_cast<std::int64_t>(v + 0.5);
  };
  switch (shape) {
    case route::CostShape::AsDeclared:
      return c;
    case route::CostShape::ActivityScaled: {
      const double a = std::clamp(activity, 0.05, 1.0);
      nn::OpCounter out = c;
      out.mults = s(static_cast<double>(c.mults) * a);
      out.adds = s(static_cast<double>(c.adds) * a);
      out.zero_skippable_mults =
          s(static_cast<double>(c.zero_skippable_mults) * a);
      out.param_bytes_read = s(static_cast<double>(c.param_bytes_read) * a);
      out.act_bytes_read = s(static_cast<double>(c.act_bytes_read) * a);
      out.comparisons = c.comparisons + c.mults;  // per-operand zero tests
      return out;
    }
    case route::CostShape::FullSweep: {
      const double f = std::max(1.0, models.full_sweep_factor);
      nn::OpCounter out = c;
      out.mults = s(static_cast<double>(c.mults) * f);
      out.adds = s(static_cast<double>(c.adds) * f);
      out.zero_skippable_mults =
          s(static_cast<double>(c.zero_skippable_mults) * f);
      out.param_bytes_read = s(static_cast<double>(c.param_bytes_read) * f);
      out.act_bytes_read = s(static_cast<double>(c.act_bytes_read) * f);
      out.act_bytes_written = s(static_cast<double>(c.act_bytes_written) * f);
      out.state_bytes_rw = s(static_cast<double>(c.state_bytes_rw) * f);
      return out;
    }
  }
  return c;
}

route::CostShape placement_shape(const ParadigmPlacement* placement) {
  if (placement == nullptr || placement->path == route::PathId::Default) {
    return route::CostShape::AsDeclared;
  }
  const route::ExecutionPath* path =
      route::PathRegistry::instance().find(placement->path);
  // Unknown ids (never produced by validate()d plans) price as declared.
  return path != nullptr ? path->cost : route::CostShape::AsDeclared;
}

}  // namespace

double model_latency_us(const nn::OpCounter& work, std::string_view paradigm,
                        const CostModels& models) {
  if (paradigm == "snn") {
    return hw::run_snn_core(work, models.snn_core).latency_us;
  }
  if (paradigm == "gnn") {
    // Map the counter onto the gather/apply/scatter engine: reads are
    // neighbour gathers, writes the scatter, comparisons the grid-hash
    // construction probes.
    return hw::run_gnn_accel(work.macs(), work.act_bytes_read,
                             work.act_bytes_written, work.comparisons,
                             models.gnn_accel)
        .latency_us_per_event;
  }
  return hw::run_systolic(work, models.systolic).latency_us;
}

double per_op_cost_us(const SessionProfile& profile,
                      const ParadigmPlacement* placement,
                      const CostModels& models) {
  if (profile.stages.empty()) {
    // Opaque pipeline: charge a nominal dense op so the planner still
    // balances it across regions rather than treating it as free.
    nn::OpCounter nominal;
    nominal.mults = nominal.adds = 1024;
    nominal.act_bytes_read = 256;
    return model_latency_us(nominal, "cnn", models);
  }
  const route::CostShape shape = placement_shape(placement);
  double total = 0.0;
  for (const core::StageInfo& stage : profile.stages) {
    const nn::OpCounter work = shape_for_path(
        scaled(stage.per_op, stage.duty), shape, profile.activity, models);
    total += model_latency_us(work, profile.paradigm, models);
  }
  return total;
}

double plan_cost_us(const Plan& plan,
                    std::span<const SessionProfile> profiles,
                    const CostModels& models) {
  if (static_cast<Index>(profiles.size()) != plan.session_count) {
    throw Error(ErrorCode::InvalidArgument,
                "plan_cost_us: profiles/session_count mismatch");
  }
  // Per-session op price under the plan's placements.
  std::vector<double> op_us(profiles.size(), 0.0);
  std::vector<std::int64_t> backlog(profiles.size(), 0);
  for (size_t s = 0; s < profiles.size(); ++s) {
    const ParadigmPlacement* placement = nullptr;
    for (const ParadigmPlacement& p : plan.placements) {
      if (p.paradigm == profiles[s].paradigm) {
        placement = &p;
        break;
      }
    }
    op_us[s] = per_op_cost_us(profiles[s], placement, models);
    backlog[s] = std::max<Index>(0, profiles[s].queued_ops);
  }
  // Simulate the pump: rounds barrier on the slowest WORKER, not the
  // slowest region. The executor's grain-1 parallel_for deals region r to
  // worker r % W, so a host with fewer workers than regions serializes
  // several regions onto one core — pretending every region owns a core
  // would make the planner buy region counts the host cannot pay for.
  const Index resolved_workers =
      models.host_workers > 0 ? models.host_workers : par::thread_count();
  const auto workers = static_cast<size_t>(
      std::clamp<Index>(resolved_workers, 1,
                        std::max<Index>(1, static_cast<Index>(
                                               plan.regions.size()))));
  std::vector<double> worker_us(workers, 0.0);
  double total_us = 0.0;
  std::int64_t remaining = 0;
  for (std::int64_t b : backlog) remaining += b;
  while (remaining > 0) {
    std::fill(worker_us.begin(), worker_us.end(), 0.0);
    double makespan = 0.0;
    for (size_t r = 0; r < plan.regions.size(); ++r) {
      double region_us = 0.0;
      for (const Index s : plan.regions[r].sessions) {
        std::int64_t& left = backlog[static_cast<size_t>(s)];
        if (left <= 0) continue;
        const std::int64_t served = std::min<std::int64_t>(left, plan.burst);
        region_us += models.visit_overhead_us +
                     static_cast<double>(served) *
                         op_us[static_cast<size_t>(s)];
        left -= served;
        remaining -= served;
      }
      worker_us[r % workers] += region_us;
    }
    for (const double w : worker_us) makespan = std::max(makespan, w);
    if (makespan <= 0.0) break;  // nothing servable: plan misses sessions
    total_us += models.round_overhead_us + makespan;
  }
  return total_us;
}

}  // namespace evd::sched
