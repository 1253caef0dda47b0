// Planner front door: profile extraction from real pipelines and the
// closed-form planner — determinism across pool sizes, structural validity
// across generated populations, the round-robin guard, longest-first
// balancing and the cheapest-path pick per paradigm.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cnn/cnn_pipeline.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "route/route.hpp"
#include "sched/planner.hpp"
#include "snn/snn_pipeline.hpp"

namespace evd::sched {
namespace {

cnn::CnnPipeline small_cnn() {
  cnn::CnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.base_filters = 2;
  return cnn::CnnPipeline(config);
}

core::StageInfo stage(const char* name, std::int64_t macs,
                      std::int64_t boundary_bytes, double duty) {
  core::StageInfo s;
  s.name = name;
  s.per_op.mults = s.per_op.adds = macs;
  s.per_op.act_bytes_written = boundary_bytes;
  s.duty = duty;
  return s;
}

SessionProfile synthetic(const char* paradigm, Index queued_ops) {
  SessionProfile p;
  p.paradigm = paradigm;
  p.queued_ops = queued_ops;
  if (p.paradigm == "cnn") {
    p.stages = {stage("cnn.accumulate", 2, 16, 1.0),
                stage("cnn.representation_build", 256, 8192, 1.0 / 32),
                stage("cnn.conv_forward", 40000, 0, 1.0 / 32)};
  } else if (p.paradigm == "snn") {
    p.stages = {stage("snn.encode", 2, 8, 1.0),
                stage("snn.step", 4096, 64, 1.0 / 64),
                stage("snn.readout", 2, 8, 1.0 / 64)};
  } else {
    p.stages = {stage("gnn.graph_update", 64, 128, 0.5),
                stage("gnn.message_pass", 4608, 32, 0.5),
                stage("gnn.readout", 32, 0, 0.5)};
  }
  return p;
}

/// A deliberately lopsided mixed population: heavy CNNs, cheap SNNs, a
/// mid-weight GNN — enough asymmetry that balancing matters.
std::vector<SessionProfile> mixed_profiles() {
  return {synthetic("cnn", 96), synthetic("cnn", 96), synthetic("snn", 32),
          synthetic("snn", 32), synthetic("snn", 32), synthetic("gnn", 48)};
}

/// A random population: 1-12 sessions of random paradigm, backlog (zero
/// included) and activity.
std::vector<SessionProfile> random_profiles(Rng& rng) {
  static const char* const kParadigms[] = {"cnn", "snn", "gnn"};
  std::vector<SessionProfile> profiles;
  const auto n = 1 + static_cast<Index>(rng.uniform_int(12));
  for (Index s = 0; s < n; ++s) {
    SessionProfile p = synthetic(kParadigms[rng.uniform_int(3)],
                                 static_cast<Index>(rng.uniform_int(200)));
    p.activity = rng.uniform(0.0, 1.0);
    profiles.push_back(p);
  }
  return profiles;
}

CostModels pinned_models(Index workers) {
  CostModels models;
  // Pin the modeled host: with host_workers = 0 the cost model resolves
  // the live pool size, which would (correctly) steer plans per host.
  models.host_workers = workers;
  return models;
}

PlanConfig plan_config(Index regions, Index burst) {
  PlanConfig config;
  config.region_count = regions;
  config.burst_cap = burst;
  return config;
}

const ParadigmPlacement& placement(const Plan& plan, const char* paradigm) {
  for (const ParadigmPlacement& p : plan.placements) {
    if (p.paradigm == paradigm) return p;
  }
  ADD_FAILURE() << "no placement for " << paradigm;
  return plan.placements.front();
}

TEST(Planner, ProfileForCopiesTheDeclaredStageChain) {
  const auto pipeline = small_cnn();
  const SessionProfile profile = profile_for(pipeline, "cnn", 24);
  EXPECT_EQ(profile.paradigm, "cnn");
  EXPECT_EQ(profile.queued_ops, 24);
  ASSERT_EQ(profile.stages.size(), 3u);
  EXPECT_EQ(profile.stages[0].name, "cnn.accumulate");
  EXPECT_EQ(profile.stages[1].name, "cnn.representation_build");
  EXPECT_EQ(profile.stages[2].name, "cnn.conv_forward");
  EXPECT_GT(profile.stages[2].per_op.mults, 0);
  EXPECT_GT(profile.stages[2].per_op.param_bytes_read, 0);
}

TEST(Planner, AllThreePipelinesDeclareStages) {
  snn::SnnPipelineConfig snn_config;
  snn_config.width = 16;
  snn_config.height = 16;
  snn_config.num_classes = 2;
  snn_config.hidden = 16;
  const snn::SnnPipeline snn_pipeline(snn_config);
  EXPECT_EQ(profile_for(snn_pipeline, "snn", 8).stages.size(), 3u);

  gnn::GnnPipelineConfig gnn_config;
  gnn_config.width = 16;
  gnn_config.height = 16;
  gnn_config.num_classes = 2;
  gnn_config.model.hidden = 8;
  const gnn::GnnPipeline gnn_pipeline(gnn_config);
  EXPECT_EQ(profile_for(gnn_pipeline, "gnn", 8).stages.size(), 3u);
}

TEST(Planner, SamePlanAtAnyThreadCount) {
  const auto profiles = mixed_profiles();
  const CostModels models = pinned_models(4);
  const auto run = [&](Index threads) {
    const Index previous = par::thread_count();
    par::set_thread_count(threads);
    const Plan plan = build_plan(profiles, models, plan_config(4, 8));
    par::set_thread_count(previous);
    return plan;
  };
  const Plan serial = run(1);
  const Plan pooled = run(4);
  EXPECT_TRUE(serial == pooled);
  EXPECT_EQ(serial.fingerprint(), pooled.fingerprint());
  EXPECT_EQ(serial.modeled_cost_us, pooled.modeled_cost_us);
}

TEST(Planner, EveryPlanValidatesAcrossPopulations) {
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    const auto profiles = random_profiles(rng);
    const auto regions = 1 + static_cast<Index>(rng.uniform_int(6));
    const auto burst = 1 + static_cast<Index>(rng.uniform_int(16));
    const Plan plan = build_plan(
        profiles, pinned_models(1 + static_cast<Index>(rng.uniform_int(4))),
        plan_config(regions, burst));
    std::string why;
    EXPECT_TRUE(plan.validate(&why))
        << "trial " << trial << ": " << why << "\n" << plan.describe();
    EXPECT_EQ(plan.session_count, static_cast<Index>(profiles.size()));
    EXPECT_LE(static_cast<Index>(plan.regions.size()), regions);
    EXPECT_EQ(plan.burst, burst);
    for (const PlanRegion& region : plan.regions) {
      EXPECT_TRUE(std::is_sorted(region.sessions.begin(),
                                 region.sessions.end()))
          << "trial " << trial << ": visits not in id order";
    }
  }
}

TEST(Planner, NeverModeledWorseThanRoundRobin) {
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const auto profiles = random_profiles(rng);
    const CostModels models =
        pinned_models(1 + static_cast<Index>(rng.uniform_int(4)));
    const PlanConfig config =
        plan_config(1 + static_cast<Index>(rng.uniform_int(6)),
                    1 + static_cast<Index>(rng.uniform_int(16)));
    const Plan plan = build_plan(profiles, models, config);
    Plan round_robin = Plan::round_robin(plan.session_count,
                                         config.region_count, config.burst_cap);
    round_robin.placements = plan.placements;
    EXPECT_EQ(plan.modeled_cost_us, plan_cost_us(plan, profiles, models))
        << "trial " << trial;
    EXPECT_LE(plan.modeled_cost_us,
              plan_cost_us(round_robin, profiles, models))
        << "trial " << trial << "\n" << plan.describe();
  }
}

TEST(Planner, SplitsHeavySessionsRoundRobinStacks) {
  // Heavy sessions at even ids: the s % W deal stacks both heavies into
  // region 0 at region_count 2; longest-first puts one in each region.
  SessionProfile heavy;
  heavy.paradigm = "cnn";
  heavy.queued_ops = 64;
  heavy.stages = {stage("conv", 200000, 0, 1.0)};
  SessionProfile light;
  light.paradigm = "snn";
  light.queued_ops = 64;
  light.stages = {stage("step", 64, 0, 1.0)};
  const std::vector<SessionProfile> profiles = {heavy, light, heavy, light};
  const CostModels models = pinned_models(2);
  const Plan plan = build_plan(profiles, models, plan_config(2, 8));
  ASSERT_EQ(plan.regions.size(), 2u);
  EXPECT_EQ(plan.regions[0].sessions, (std::vector<Index>{0, 1}));
  EXPECT_EQ(plan.regions[1].sessions, (std::vector<Index>{2, 3}));
  Plan round_robin = Plan::round_robin(4, 2, 8);
  round_robin.placements = plan.placements;
  EXPECT_LT(plan.modeled_cost_us, plan_cost_us(round_robin, profiles, models))
      << plan.describe();
}

TEST(Planner, PlacementsCoverEachParadigmOnce) {
  const Plan plan =
      build_plan(mixed_profiles(), pinned_models(4), plan_config(4, 8));
  ASSERT_EQ(plan.placements.size(), 3u);
  std::vector<std::string> paradigms;
  for (const auto& p : plan.placements) {
    paradigms.push_back(p.paradigm);
    EXPECT_TRUE(route::path_valid_for(p.path, p.paradigm))
        << p.paradigm << " routed to " << route::path_name(p.path);
  }
  EXPECT_EQ(paradigms, (std::vector<std::string>{"cnn", "snn", "gnn"}));
}

/// A CNN, SNN and GNN population built from real pipelines at `activity`.
std::vector<SessionProfile> pipeline_profiles(double activity) {
  cnn::CnnPipelineConfig cnn_config;
  cnn_config.width = 32;
  cnn_config.height = 32;
  cnn_config.num_classes = 2;
  cnn_config.base_filters = 4;
  const cnn::CnnPipeline cnn_pipeline(cnn_config);
  snn::SnnPipelineConfig snn_config;
  snn_config.width = 32;
  snn_config.height = 32;
  snn_config.num_classes = 2;
  snn_config.hidden = 64;
  const snn::SnnPipeline snn_pipeline(snn_config);
  gnn::GnnPipelineConfig gnn_config;
  gnn_config.width = 32;
  gnn_config.height = 32;
  gnn_config.num_classes = 2;
  gnn_config.model.hidden = 16;
  const gnn::GnnPipeline gnn_pipeline(gnn_config);
  std::vector<SessionProfile> profiles;
  for (int i = 0; i < 2; ++i) {
    profiles.push_back(profile_for(cnn_pipeline, "cnn", 64, activity));
    profiles.push_back(profile_for(snn_pipeline, "snn", 64, activity));
    profiles.push_back(profile_for(gnn_pipeline, "gnn", 64, activity));
  }
  return profiles;
}

void prove_variants() {
  // Proving is process-wide and sticky (route.* oracle registration); pin
  // the full proved set so the pick does not depend on suite order.
  route::PathRegistry::instance().mark_proved(route::PathId::CnnSparse);
  route::PathRegistry::instance().mark_proved(route::PathId::SnnEventDriven);
  route::PathRegistry::instance().mark_proved(route::PathId::GnnBatch);
}

TEST(Planner, SparsePopulationRoutesToEventDrivenPaths) {
  prove_variants();
  const Plan plan =
      build_plan(pipeline_profiles(0.0625), pinned_models(4), plan_config(4, 8));
  EXPECT_EQ(placement(plan, "cnn").path, route::PathId::CnnSparse);
  EXPECT_EQ(placement(plan, "snn").path, route::PathId::SnnEventDriven);
  EXPECT_EQ(placement(plan, "gnn").path, route::PathId::Default);
}

TEST(Planner, DensePopulationStaysOnDefaultPaths) {
  prove_variants();
  const Plan plan =
      build_plan(pipeline_profiles(1.0), pinned_models(4), plan_config(4, 8));
  for (const ParadigmPlacement& p : plan.placements) {
    EXPECT_EQ(p.path, route::PathId::Default)
        << p.paradigm << " routed to " << route::path_name(p.path);
  }
}

TEST(Planner, CostTieStaysOnDefault) {
  // A profile with no declared stages is priced as one nominal dense op on
  // every path, so cnn.sparse ties with Default, and Default must win.
  prove_variants();
  const CostModels models = pinned_models(4);
  SessionProfile opaque;
  opaque.paradigm = "cnn";
  opaque.queued_ops = 8;
  opaque.activity = 0.0625;
  const std::vector<SessionProfile> profiles = {opaque, opaque};
  const ParadigmPlacement sparse{"cnn", route::PathId::CnnSparse};
  ASSERT_EQ(per_op_cost_us(opaque, &sparse, models),
            per_op_cost_us(opaque, nullptr, models));
  const Plan plan = build_plan(profiles, models, plan_config(4, 8));
  EXPECT_EQ(placement(plan, "cnn").path, route::PathId::Default);
}

}  // namespace
}  // namespace evd::sched
