// Planner front door: profile extraction from real pipelines, the
// deterministic cache key, and cache hit/miss behaviour.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cnn/cnn_pipeline.hpp"
#include "gnn/gnn_pipeline.hpp"
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

TEST(Planner, ProfilesKeyIsDeterministicAndDiscriminating) {
  const auto pipeline = small_cnn();
  const std::vector<SessionProfile> population(
      3, profile_for(pipeline, "cnn", 16));
  const AnnealerConfig config;
  const std::uint64_t key = profiles_key(population, config);
  EXPECT_EQ(profiles_key(population, config), key);  // stable

  // Workload mix, population size and search config all move the key.
  std::vector<SessionProfile> busier = population;
  busier[0].queued_ops = 128;
  EXPECT_NE(profiles_key(busier, config), key);

  std::vector<SessionProfile> larger = population;
  larger.push_back(population[0]);
  EXPECT_NE(profiles_key(larger, config), key);

  AnnealerConfig other_search = config;
  other_search.seed += 1;
  EXPECT_NE(profiles_key(population, other_search), key);
}

TEST(Planner, CachesThePlanForARepeatedPopulation) {
  const auto pipeline = small_cnn();
  const std::vector<SessionProfile> population(
      4, profile_for(pipeline, "cnn", 16));
  AnnealerConfig config;
  config.iterations = 120;

  Planner& planner = Planner::instance();
  planner.clear_cache();
  EXPECT_EQ(planner.cache_size(), 0);

  const Plan first = planner.plan_for(population, config);
  EXPECT_EQ(planner.cache_size(), 1);
  EXPECT_TRUE(first.validate());
  EXPECT_EQ(first.session_count, 4);

  const Plan again = planner.plan_for(population, config);
  EXPECT_EQ(planner.cache_size(), 1);  // hit, not a second anneal
  EXPECT_TRUE(again == first);
  EXPECT_EQ(again.fingerprint(), first.fingerprint());

  // A different workload mix is a different key — and a fresh plan slot.
  std::vector<SessionProfile> busier = population;
  busier[1].queued_ops = 256;
  const Plan other = planner.plan_for(busier, config);
  EXPECT_EQ(planner.cache_size(), 2);
  EXPECT_EQ(other.session_count, 4);
  planner.clear_cache();
}

}  // namespace
}  // namespace evd::sched
