#include <gtest/gtest.h>

#include "common/parallel.hpp"

#include "gnn/gnn_pipeline.hpp"
#include "sched/planner.hpp"
#include "test_util.hpp"

namespace evd::gnn {
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

GnnPipelineConfig tiny_pipeline() {
  GnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.graph.max_nodes = 128;
  config.stream_stride = 2;
  return config;
}

TEST(GnnPipeline, TrainAndClassifySmoke) {
  events::ShapeDataset dataset(tiny_dataset());
  std::vector<events::LabelledSample> train, test;
  dataset.make_split(8, 4, train, test);

  GnnPipeline pipeline(tiny_pipeline());
  core::TrainOptions options;
  options.epochs = 10;
  options.lr = 5e-3f;
  pipeline.train(train, options);

  Index correct = 0;
  for (const auto& sample : test) {
    const int predicted = pipeline.classify(sample.stream);
    EXPECT_GE(predicted, 0);
    EXPECT_LT(predicted, 2);
    correct += (predicted == sample.label) ? 1 : 0;
  }
  EXPECT_GE(correct, 4);
}

TEST(GnnPipeline, SessionEmitsDecisionPerInsertedEvent) {
  GnnPipeline pipeline(tiny_pipeline());
  auto session = pipeline.open_session(16, 16);
  for (TimeUs t = 0; t < 10000; t += 1000) {
    session->feed({4, 4, Polarity::On, t});
  }
  const auto decisions = test::drained(*session);
  // stride 2 -> every other event inserted -> 5 decisions.
  ASSERT_EQ(decisions.size(), 5u);
  // Decisions carry the event's own timestamp — no frame/step quantisation.
  EXPECT_EQ(decisions.front().t, 0);
  EXPECT_EQ(decisions.back().t, 8000);
}

TEST(GnnPipeline, OpensSessionsFromPoolWorkersAtOnce) {
  // A fresh pipeline's model is frozen already, so sessions opened from
  // several workers at once only read it, and each stream equals the one
  // a session opened alone produces.
  GnnPipeline pipeline(tiny_pipeline());
  auto serve = [&pipeline] {
    auto session = pipeline.open_session(16, 16);
    for (TimeUs t = 0; t < 10000; t += 1000) {
      session->feed({static_cast<std::int16_t>(2 + t / 4000), 4,
                     Polarity::On, t});
    }
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

TEST(GnnPipeline, PlanningKeepsTheServedModelFrozen) {
  GnnPipeline pipeline(tiny_pipeline());
  auto session = pipeline.open_session(16, 16);
  for (Index l = 0; l < pipeline.model().conv_count(); ++l) {
    ASSERT_TRUE(pipeline.model().conv(l).frozen()) << "conv " << l;
  }
  (void)sched::profile_for(pipeline, "gnn", 4);
  EXPECT_GT(pipeline.param_count(), 0);
  for (Index l = 0; l < pipeline.model().conv_count(); ++l) {
    EXPECT_TRUE(pipeline.model().conv(l).frozen()) << "conv " << l;
  }
}

TEST(GnnPipeline, GeometryMismatchThrows) {
  GnnPipeline pipeline(tiny_pipeline());
  EXPECT_THROW(pipeline.open_session(8, 8), std::invalid_argument);
}

TEST(GnnPipeline, ResolutionFlexibleByConstruction) {
  // classify() works on a different geometry without retraining — the
  // Table I "Configurability / Scalability" probe.
  GnnPipeline pipeline(tiny_pipeline());
  events::EventStream big;
  big.width = 64;
  big.height = 64;
  for (Index i = 0; i < 100; ++i) {
    big.events.push_back({static_cast<std::int16_t>(i % 64),
                          static_cast<std::int16_t>((i * 7) % 64),
                          Polarity::On, i * 100});
  }
  EXPECT_NO_THROW(pipeline.classify(big));
}

TEST(GnnPipeline, MetricsAreSane) {
  GnnPipeline pipeline(tiny_pipeline());
  EXPECT_GT(pipeline.param_count(), 100);
  EXPECT_GT(pipeline.state_bytes(), 0);
  EXPECT_GT(pipeline.input_preparation_bytes(), 0);
}

TEST(GnnPipeline, SparsityMetricsInRange) {
  GnnPipeline pipeline(tiny_pipeline());
  events::ShapeDataset dataset(tiny_dataset());
  const auto sample = dataset.make_sample(0);
  const double input_sparsity = pipeline.input_sparsity(sample.stream);
  EXPECT_GE(input_sparsity, 0.0);
  EXPECT_LE(input_sparsity, 1.0);
  const double compute_sparsity =
      pipeline.computation_sparsity(sample.stream);
  EXPECT_GT(compute_sparsity, 0.8);  // async updates vs full recompute
  EXPECT_LE(compute_sparsity, 1.0);
}

}  // namespace
}  // namespace evd::gnn
