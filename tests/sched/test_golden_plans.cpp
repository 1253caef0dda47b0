// Golden snapshot of the plans the planner chooses for three canonical
// session populations (CNN-heavy, SNN-heavy, mixed). Any change to the
// cost models, the stage declarations or the planning rules shifts these
// plans — the snapshot turns that into a reviewed diff instead of a
// silent re-plan. Refresh with EVD_UPDATE_GOLDEN=1.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/golden.hpp"
#include "cnn/cnn_pipeline.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "route/route.hpp"
#include "sched/planner.hpp"
#include "snn/snn_pipeline.hpp"

namespace evd::sched {
namespace {

SessionProfile cnn_profile(Index queued_ops) {
  cnn::CnnPipelineConfig config;
  config.width = 32;
  config.height = 32;
  config.num_classes = 4;
  config.base_filters = 4;
  const cnn::CnnPipeline pipeline(config);
  return profile_for(pipeline, "cnn", queued_ops);
}

SessionProfile snn_profile(Index queued_ops) {
  snn::SnnPipelineConfig config;
  config.width = 32;
  config.height = 32;
  config.num_classes = 4;
  config.hidden = 64;
  const snn::SnnPipeline pipeline(config);
  return profile_for(pipeline, "snn", queued_ops);
}

SessionProfile gnn_profile(Index queued_ops) {
  gnn::GnnPipelineConfig config;
  config.width = 32;
  config.height = 32;
  config.num_classes = 4;
  config.model.hidden = 16;
  const gnn::GnnPipeline pipeline(config);
  return profile_for(pipeline, "gnn", queued_ops);
}

std::string render(const std::string& title,
                   const std::vector<SessionProfile>& profiles) {
  PlanConfig config;
  config.region_count = 4;
  config.burst_cap = 8;
  CostModels models;
  // Pin the modeled host: with host_workers = 0 plan_cost_us resolves the
  // live pool size and the snapshot would depend on the machine.
  models.host_workers = 4;
  const Plan plan = build_plan(profiles, models, config);
  EXPECT_TRUE(plan.validate()) << title;
  Plan round_robin = Plan::round_robin(plan.session_count, config.region_count,
                                       config.burst_cap);
  round_robin.placements = plan.placements;
  std::string out = "== " + title + " ==\n";
  out += "round_robin_cost_us=" +
         std::to_string(plan_cost_us(round_robin, profiles, models)) + "\n";
  out += plan.describe() + "\n";
  return out;
}

TEST(GoldenPlans, ChosenPlansMatchTheSnapshot) {
  // The planner only picks proved variants, and proving is process-wide
  // and sticky (route.* oracle registration). Pin the full proved set here
  // so the snapshot does not depend on which suites ran before this one.
  route::PathRegistry::instance().mark_proved(route::PathId::CnnSparse);
  route::PathRegistry::instance().mark_proved(route::PathId::SnnEventDriven);
  route::PathRegistry::instance().mark_proved(route::PathId::GnnBatch);
  std::string actual;
  actual += render("cnn_heavy",
                   {cnn_profile(96), cnn_profile(96), cnn_profile(64),
                    cnn_profile(64), snn_profile(16), gnn_profile(16)});
  actual += render("snn_heavy",
                   {snn_profile(96), snn_profile(96), snn_profile(64),
                    snn_profile(64), cnn_profile(16), gnn_profile(16)});
  actual += render("mixed",
                   {cnn_profile(64), snn_profile(64), gnn_profile(64),
                    cnn_profile(32), snn_profile(32), gnn_profile(32)});
  const auto diff = check::golden_compare("sched_plans", actual);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

}  // namespace
}  // namespace evd::sched
