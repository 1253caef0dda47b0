// Cross-pipeline edge cases: empty streams, silent sessions, degenerate
// geometries — the inputs a deployed system will inevitably meet.
#include <gtest/gtest.h>

#include "cnn/cnn_pipeline.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "snn/snn_pipeline.hpp"
#include "test_util.hpp"

namespace evd {
namespace {

events::EventStream empty_stream(Index size = 16) {
  events::EventStream stream;
  stream.width = size;
  stream.height = size;
  return stream;
}

cnn::CnnPipelineConfig tiny_cnn() {
  cnn::CnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.base_filters = 4;
  return config;
}

snn::SnnPipelineConfig tiny_snn() {
  snn::SnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.hidden = 8;
  config.encoder.steps = 5;
  config.encoder.spatial_factor = 2;
  return config;
}

gnn::GnnPipelineConfig tiny_gnn() {
  gnn::GnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.model.hidden = 6;
  config.model.layers = 2;
  return config;
}

TEST(EdgeCases, AllPipelinesClassifyEmptyStream) {
  cnn::CnnPipeline cnn_pipeline(tiny_cnn());
  snn::SnnPipeline snn_pipeline(tiny_snn());
  gnn::GnnPipeline gnn_pipeline(tiny_gnn());
  for (core::EventPipeline* pipeline :
       {static_cast<core::EventPipeline*>(&cnn_pipeline),
        static_cast<core::EventPipeline*>(&snn_pipeline),
        static_cast<core::EventPipeline*>(&gnn_pipeline)}) {
    const int predicted = pipeline->classify(empty_stream());
    EXPECT_GE(predicted, 0) << pipeline->name();
    EXPECT_LT(predicted, 2) << pipeline->name();
  }
}

TEST(EdgeCases, SilentSessionsAdvanceWithoutEvents) {
  cnn::CnnPipeline cnn_pipeline(tiny_cnn());
  snn::SnnPipeline snn_pipeline(tiny_snn());
  gnn::GnnPipeline gnn_pipeline(tiny_gnn());
  {
    auto session = cnn_pipeline.open_session(16, 16);
    session->advance_to(100000);
    EXPECT_EQ(test::drained(*session).size(), 5u);  // 20 ms frames
  }
  {
    auto session = snn_pipeline.open_session(16, 16);
    session->advance_to(100000);
    EXPECT_EQ(test::drained(*session).size(), 20u);  // 5 ms steps
  }
  {
    auto session = gnn_pipeline.open_session(16, 16);
    session->advance_to(100000);
    EXPECT_TRUE(test::drained(*session).empty());  // no events, no decisions
  }
}

TEST(EdgeCases, SingleEventStream) {
  events::EventStream one = empty_stream();
  one.events.push_back({8, 8, Polarity::On, 1000});
  cnn::CnnPipeline cnn_pipeline(tiny_cnn());
  snn::SnnPipeline snn_pipeline(tiny_snn());
  gnn::GnnPipeline gnn_pipeline(tiny_gnn());
  EXPECT_NO_THROW(cnn_pipeline.classify(one));
  EXPECT_NO_THROW(snn_pipeline.classify(one));
  EXPECT_NO_THROW(gnn_pipeline.classify(one));
}

TEST(EdgeCases, TrainOnTinySplitDoesNotCrash) {
  events::ShapeDatasetConfig dataset_config;
  dataset_config.width = 16;
  dataset_config.height = 16;
  dataset_config.num_classes = 2;
  dataset_config.duration_us = 20000;
  events::ShapeDataset dataset(dataset_config);
  std::vector<events::LabelledSample> train, test;
  dataset.make_split(1, 1, train, test);

  core::TrainOptions one_epoch{1, 1e-3f, 1, false};
  cnn::CnnPipeline cnn_pipeline(tiny_cnn());
  EXPECT_NO_THROW(cnn_pipeline.train(train, one_epoch));
  snn::SnnPipeline snn_pipeline(tiny_snn());
  EXPECT_NO_THROW(snn_pipeline.train(train, one_epoch));
  gnn::GnnPipeline gnn_pipeline(tiny_gnn());
  EXPECT_NO_THROW(gnn_pipeline.train(train, one_epoch));
}

}  // namespace
}  // namespace evd
