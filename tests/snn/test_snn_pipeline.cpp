#include <gtest/gtest.h>

#include "common/parallel.hpp"

#include "sched/planner.hpp"
#include "snn/snn_pipeline.hpp"
#include "test_util.hpp"

namespace evd::snn {
namespace {

events::ShapeDatasetConfig tiny_dataset() {
  events::ShapeDatasetConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.duration_us = 30000;
  config.min_radius = 3.0;
  config.max_radius = 5.0;
  return config;
}

SnnPipelineConfig tiny_pipeline() {
  SnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.hidden = 32;
  config.encoder.steps = 10;
  config.encoder.spatial_factor = 2;
  config.augment_shifts = 2;
  config.augment_max_shift = 2;
  return config;
}

TEST(SnnPipeline, TrainAndClassifySmoke) {
  events::ShapeDataset dataset(tiny_dataset());
  std::vector<events::LabelledSample> train, test;
  dataset.make_split(8, 4, train, test);

  SnnPipeline pipeline(tiny_pipeline());
  core::TrainOptions options;
  options.epochs = 8;
  options.lr = 3e-3f;
  pipeline.train(train, options);

  Index correct = 0;
  for (const auto& sample : test) {
    const int predicted = pipeline.classify(sample.stream);
    EXPECT_GE(predicted, 0);
    EXPECT_LT(predicted, 2);
    correct += (predicted == sample.label) ? 1 : 0;
  }
  EXPECT_GE(correct, 4);  // above chance on 8 test samples
}

TEST(SnnPipeline, SessionDecisionsAtTimestepGranularity) {
  SnnPipeline pipeline(tiny_pipeline());
  auto session = pipeline.open_session(16, 16);
  for (TimeUs t = 0; t < 50000; t += 1000) {
    session->feed({4, 4, Polarity::On, t});
  }
  session->advance_to(50000);
  const auto decisions = test::drained(*session);
  // Timestep 5 ms -> 10 decisions.
  ASSERT_EQ(decisions.size(), 10u);
  EXPECT_EQ(decisions.front().t, 5000);
  for (const auto& d : decisions) {
    EXPECT_GE(d.label, 0);
    EXPECT_GT(d.confidence, 0.0);
  }
}

TEST(SnnPipeline, OpensSessionsFromPoolWorkersAtOnce) {
  // A fresh pipeline's model is frozen already, so sessions opened from
  // several workers at once only read it, and each stream equals the one
  // a session opened alone produces.
  SnnPipeline pipeline(tiny_pipeline());
  auto serve = [&pipeline] {
    auto session = pipeline.open_session(16, 16);
    for (TimeUs t = 0; t < 50000; t += 1000) {
      session->feed({static_cast<std::int16_t>(2 + t / 4000), 4,
                     Polarity::On, t});
    }
    session->advance_to(50000);
    return test::drained(*session);
  };
  const Index previous = par::thread_count();
  par::set_thread_count(4);
  std::vector<std::vector<core::Decision>> streams(4);
  par::parallel_for(0, 4, 1, [&](Index b, Index e) {
    for (Index i = b; i < e; ++i) streams[static_cast<size_t>(i)] = serve();
  });
  par::set_thread_count(previous);
  const std::vector<core::Decision> expected = serve();
  ASSERT_FALSE(expected.empty());
  for (const auto& stream : streams) EXPECT_EQ(stream, expected);
}

TEST(SnnPipeline, PlanningKeepsTheServedModelFrozen) {
  SnnPipeline pipeline(tiny_pipeline());
  auto session = pipeline.open_session(16, 16);
  ASSERT_TRUE(pipeline.net().frozen());
  (void)sched::profile_for(pipeline, "snn", 4);
  EXPECT_GT(pipeline.param_count(), 0);
  EXPECT_TRUE(pipeline.net().frozen());
}

TEST(SnnPipeline, GeometryMismatchThrows) {
  SnnPipeline pipeline(tiny_pipeline());
  EXPECT_THROW(pipeline.open_session(32, 32), std::invalid_argument);
}

TEST(SnnPipeline, MetricsAreSane) {
  SnnPipeline pipeline(tiny_pipeline());
  EXPECT_GT(pipeline.param_count(), 1000);
  EXPECT_GT(pipeline.state_bytes(), 0);
  EXPECT_GT(pipeline.input_preparation_bytes(), 0);
  // Spike trains are far lighter to prepare than a dense frame.
  EXPECT_LT(pipeline.input_preparation_bytes(), 2 * 16 * 16 * 4);
}

TEST(SnnPipeline, SparsityMetricsInRange) {
  SnnPipeline pipeline(tiny_pipeline());
  events::ShapeDataset dataset(tiny_dataset());
  const auto sample = dataset.make_sample(0);
  const double input_sparsity = pipeline.input_sparsity(sample.stream);
  EXPECT_GT(input_sparsity, 0.5);  // event input is overwhelmingly silent
  EXPECT_LE(input_sparsity, 1.0);
  const double compute_sparsity =
      pipeline.computation_sparsity(sample.stream);
  EXPECT_GT(compute_sparsity, 0.3);
  EXPECT_LE(compute_sparsity, 1.0);
}

TEST(SnnPipeline, AugmentationDisabledStillTrains) {
  auto config = tiny_pipeline();
  config.augment_shifts = 0;
  events::ShapeDataset dataset(tiny_dataset());
  std::vector<events::LabelledSample> train, test;
  dataset.make_split(2, 1, train, test);
  SnnPipeline pipeline(config);
  core::TrainOptions options;
  options.epochs = 2;
  EXPECT_NO_THROW(pipeline.train(train, options));
}

}  // namespace
}  // namespace evd::snn
