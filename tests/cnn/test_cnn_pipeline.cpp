#include <gtest/gtest.h>

#include <iterator>
#include <utility>

#include "cnn/cnn_pipeline.hpp"
#include "nn/conv2d.hpp"
#include "nn/softmax.hpp"
#include "route/route.hpp"
#include "test_util.hpp"

namespace evd::cnn {
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

CnnPipelineConfig tiny_pipeline() {
  CnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.base_filters = 4;
  return config;
}

TEST(CnnPipeline, TrainAndClassifySmoke) {
  events::ShapeDataset dataset(tiny_dataset());
  std::vector<events::LabelledSample> train, test;
  dataset.make_split(8, 4, train, test);

  CnnPipeline pipeline(tiny_pipeline());
  core::TrainOptions options;
  options.epochs = 10;
  options.lr = 3e-3f;
  pipeline.train(train, options);

  Index correct = 0;
  for (const auto& sample : test) {
    const int predicted = pipeline.classify(sample.stream);
    EXPECT_GE(predicted, 0);
    EXPECT_LT(predicted, 2);
    correct += (predicted == sample.label) ? 1 : 0;
  }
  // Circle vs square at 16x16 with a small budget: clearly above chance.
  EXPECT_GE(correct, 5);
}

TEST(CnnPipeline, SessionEmitsDecisionsPerFramePeriod) {
  CnnPipeline pipeline(tiny_pipeline());
  auto session = pipeline.open_session(16, 16);
  // Feed 100 ms of sparse events.
  for (TimeUs t = 0; t < 100000; t += 5000) {
    session->feed({4, 4, Polarity::On, t});
  }
  session->advance_to(100000);
  const auto decisions = test::drained(*session);
  // Frame period 20 ms -> 5 decisions.
  ASSERT_EQ(decisions.size(), 5u);
  // Decision timestamps are the frame boundaries.
  EXPECT_EQ(decisions.front().t, 20000);
  EXPECT_EQ(decisions.back().t, 100000);
}

TEST(CnnPipeline, EmptyFramesStillProduceDecisionSlots) {
  CnnPipeline pipeline(tiny_pipeline());
  auto session = pipeline.open_session(16, 16);
  session->advance_to(60000);
  const auto decisions = test::drained(*session);
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_EQ(decisions[0].label, -1);  // nothing to classify
}

TEST(CnnPipeline, SessionScratchIsReusedAcrossFrameDensities) {
  // One session's activation buffers serve frames from full to empty, on
  // every conv kernel (the shape heuristic, Direct and GEMM forced by a
  // thread override, and the cnn.sparse route): each decision equals a
  // fresh forward of its frame, bit for bit.
  const CnnPipelineConfig config = tiny_pipeline();
  CnnPipeline pipeline(config);
  const TimeUs period = config.frame_period_us;
  const Index events_per_frame[] = {256, 3, 0, 40, 256, 1};
  constexpr Index kFrames = std::size(events_per_frame);
  const std::pair<route::PathId, nn::ConvAlgo> kernels[] = {
      {route::PathId::Default, nn::ConvAlgo::Auto},
      {route::PathId::Default, nn::ConvAlgo::Direct},
      {route::PathId::Default, nn::ConvAlgo::Gemm},
      {route::PathId::CnnSparse, nn::ConvAlgo::Auto}};
  for (const auto& [path, algo] : kernels) {
    const nn::ScopedConvAlgo forced(algo);
    auto session = pipeline.open_session(16, 16);
    ASSERT_TRUE(session->set_execution_path(path));
    std::vector<std::vector<events::Event>> windows(kFrames);
    Rng rng(3);
    for (Index f = 0; f < kFrames; ++f) {
      for (Index i = 0; i < events_per_frame[f]; ++i) {
        const events::Event e{
            static_cast<std::int16_t>(i % 16),
            static_cast<std::int16_t>((i / 16) % 16),
            rng.uniform() < 0.5 ? Polarity::On : Polarity::Off,
            f * period + i * (period / 300)};
        windows[static_cast<size_t>(f)].push_back(e);
        session->feed(e);
      }
    }
    session->advance_to(kFrames * period);
    const auto decisions = test::drained(*session);
    ASSERT_EQ(decisions.size(), static_cast<size_t>(kFrames));
    for (Index f = 0; f < kFrames; ++f) {
      const auto& window = windows[static_cast<size_t>(f)];
      const core::Decision& got = decisions[static_cast<size_t>(f)];
      if (window.empty()) {
        EXPECT_EQ(got.label, -1);
        continue;
      }
      nn::Tensor probs;
      {
        const nn::ScopedConvAlgo reference(nn::ConvAlgo::Auto);
        probs = nn::softmax(pipeline.model().forward(
            build_frame(window, 16, 16, f * period, (f + 1) * period,
                        config.frame),
            false));
      }
      const Index best = probs.argmax();
      EXPECT_EQ(got.label, static_cast<int>(best)) << "frame " << f;
      EXPECT_EQ(got.confidence, static_cast<double>(probs[best]))
          << "frame " << f << " path " << static_cast<int>(path) << " algo "
          << static_cast<int>(algo);
    }
  }
}

TEST(CnnPipeline, GeometryMismatchThrows) {
  CnnPipeline pipeline(tiny_pipeline());
  EXPECT_THROW(pipeline.open_session(32, 32), std::invalid_argument);
}

TEST(CnnPipeline, MetricsAreSane) {
  CnnPipeline pipeline(tiny_pipeline());
  EXPECT_GT(pipeline.param_count(), 100);
  EXPECT_EQ(pipeline.input_preparation_bytes(), 2 * 16 * 16 * 4);
  EXPECT_EQ(pipeline.state_bytes(), 2 * 16 * 16 * 4);
}

TEST(CnnPipeline, InputSparsityIsZeroByConstruction) {
  CnnPipeline pipeline(tiny_pipeline());
  events::ShapeDataset dataset(tiny_dataset());
  const auto sample = dataset.make_sample(0);
  EXPECT_EQ(pipeline.input_sparsity(sample.stream), 0.0);
}

TEST(CnnPipeline, ComputationSparsityReflectsZeroActivations) {
  CnnPipeline pipeline(tiny_pipeline());
  events::ShapeDataset dataset(tiny_dataset());
  const auto sample = dataset.make_sample(0);
  const double sparsity = pipeline.computation_sparsity(sample.stream);
  EXPECT_GT(sparsity, 0.1);  // event frames are mostly empty
  EXPECT_LE(sparsity, 1.0);
}

TEST(CnnPipeline, ClassifyEmptyStreamDoesNotCrash) {
  CnnPipeline pipeline(tiny_pipeline());
  events::EventStream empty;
  empty.width = 16;
  empty.height = 16;
  const int predicted = pipeline.classify(empty);
  EXPECT_GE(predicted, 0);
}

}  // namespace
}  // namespace evd::cnn
