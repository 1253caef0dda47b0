// Plan objective: per-paradigm hw-model pricing of stage chains, path
// reshaping and the round-simulation makespan.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "sched/cost.hpp"

namespace evd::sched {
namespace {

/// Two-stage chain passing `boundary_bytes` of activations per op.
SessionProfile boundary_profile(std::int64_t boundary_bytes) {
  SessionProfile profile;
  profile.paradigm = "cnn";
  core::StageInfo produce;
  produce.name = "produce";
  produce.per_op.mults = produce.per_op.adds = 512;
  produce.per_op.act_bytes_written = boundary_bytes;
  core::StageInfo consume;
  consume.name = "consume";
  consume.per_op.mults = consume.per_op.adds = 512;
  consume.per_op.act_bytes_read = boundary_bytes;
  profile.stages = {produce, consume};
  return profile;
}

TEST(Cost, EveryModelPricesWorkPositively) {
  const CostModels models;
  nn::OpCounter work;
  work.mults = work.adds = 4096;
  work.comparisons = 128;
  work.act_bytes_read = 2048;
  work.act_bytes_written = 512;
  work.param_bytes_read = 4096;
  for (const char* paradigm : {"cnn", "snn", "gnn", "unknown"}) {
    EXPECT_GT(model_latency_us(work, paradigm, models), 0.0) << paradigm;
  }
  // Unknown paradigms price on the CNN's dense systolic array.
  EXPECT_EQ(model_latency_us(work, "unknown", models),
            model_latency_us(work, "cnn", models));
}

TEST(Cost, OpaqueProfilesStillCostSomething) {
  // A session whose pipeline declares no stages must not look free to the
  // planner, or every plan would pile opaque sessions onto one region.
  const CostModels models;
  SessionProfile opaque;
  opaque.paradigm = "cnn";
  EXPECT_GT(per_op_cost_us(opaque, nullptr, models), 0.0);
}

TEST(Cost, StagesArePricedOneByOne) {
  // A chain costs exactly the sum of its stages, each priced alone on the
  // paradigm's model.
  const CostModels models;
  const SessionProfile chain = boundary_profile(/*boundary_bytes=*/4096);
  double sum_us = 0.0;
  for (const core::StageInfo& stage : chain.stages) {
    SessionProfile single = chain;
    single.stages = {stage};
    sum_us += per_op_cost_us(single, nullptr, models);
  }
  EXPECT_EQ(per_op_cost_us(chain, nullptr, models), sum_us);
}

TEST(Cost, DutyScalesTheChargedWork) {
  const CostModels models;
  SessionProfile full = boundary_profile(0);
  SessionProfile rare = full;
  rare.stages[1].duty = 1.0 / 64.0;  // consume fires every 64th op
  EXPECT_LT(per_op_cost_us(rare, nullptr, models),
            per_op_cost_us(full, nullptr, models));
}

TEST(Cost, PlanCostMatchesAHandSimulatedDrain) {
  const CostModels models;
  SessionProfile profile = boundary_profile(0);
  profile.queued_ops = 5;
  const std::vector<SessionProfile> profiles(1, profile);
  Plan plan = Plan::round_robin(1, 1, /*burst=*/2);
  // One session, burst 2, backlog 5: rounds serve 2+2+1 ops, each round
  // paying the fork-join overhead plus one visit overhead plus served ops
  // at the session's op price.
  const double op_us = per_op_cost_us(profile, nullptr, models);
  const double expected =
      3 * (models.round_overhead_us + models.visit_overhead_us) + 5 * op_us;
  EXPECT_NEAR(plan_cost_us(plan, profiles, models), expected, 1e-9);
}

TEST(Cost, ParallelRegionsBarrierOnTheSlowest) {
  CostModels models;
  models.host_workers = 2;  // one worker per region, whatever the host has
  SessionProfile profile = boundary_profile(0);
  profile.queued_ops = 4;
  const std::vector<SessionProfile> profiles(2, profile);
  // Two identical sessions: two regions drain them in parallel (makespan =
  // one session's drain); one region drains them back-to-back (the sum).
  const Plan wide = Plan::round_robin(2, 2, /*burst=*/4);
  const Plan narrow = Plan::round_robin(2, 1, /*burst=*/4);
  const double wide_us = plan_cost_us(wide, profiles, models);
  const double narrow_us = plan_cost_us(narrow, profiles, models);
  EXPECT_LT(wide_us, narrow_us);
  const double one_session_us =
      models.visit_overhead_us +
      4 * per_op_cost_us(profile, nullptr, models);
  EXPECT_NEAR(wide_us, models.round_overhead_us + one_session_us, 1e-9);
  EXPECT_NEAR(narrow_us, models.round_overhead_us + 2 * one_session_us, 1e-9);
}

TEST(Cost, FewerWorkersSerializeRegionsOntoTheHost) {
  // The executor deals region r to worker r % W, so a two-region plan on a
  // one-worker host drains the regions back-to-back: the modeled makespan
  // must say so instead of pretending every region owns a core.
  CostModels two_workers;
  two_workers.host_workers = 2;
  CostModels one_worker = two_workers;
  one_worker.host_workers = 1;
  SessionProfile profile = boundary_profile(0);
  profile.queued_ops = 4;
  const std::vector<SessionProfile> profiles(2, profile);
  const Plan wide = Plan::round_robin(2, 2, /*burst=*/4);
  const double one_session_us =
      two_workers.visit_overhead_us +
      4 * per_op_cost_us(profile, nullptr, two_workers);
  EXPECT_NEAR(plan_cost_us(wide, profiles, two_workers),
              two_workers.round_overhead_us + one_session_us, 1e-9);
  // Same plan, starved host: both regions land on worker 0 and serialize.
  EXPECT_NEAR(plan_cost_us(wide, profiles, one_worker),
              one_worker.round_overhead_us + 2 * one_session_us, 1e-9);
}

TEST(Cost, ExcessWorkersCannotSplitARegion) {
  // Workers clamp to the region count: a single-region plan costs the same
  // on a 1-worker and a 16-worker host — regions are the parallelism unit.
  CostModels narrow;
  narrow.host_workers = 1;
  CostModels lavish = narrow;
  lavish.host_workers = 16;
  SessionProfile profile = boundary_profile(0);
  profile.queued_ops = 4;
  const std::vector<SessionProfile> profiles(2, profile);
  const Plan plan = Plan::round_robin(2, 1, /*burst=*/4);
  EXPECT_NEAR(plan_cost_us(plan, profiles, narrow),
              plan_cost_us(plan, profiles, lavish), 1e-12);
}

TEST(Cost, PlanCostRejectsProfileCountMismatch) {
  const CostModels models;
  const std::vector<SessionProfile> profiles(3, boundary_profile(0));
  const Plan plan = Plan::round_robin(2, 2, 1);
  try {
    plan_cost_us(plan, profiles, models);
    FAIL() << "expected InvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
  }
}

}  // namespace
}  // namespace evd::sched
