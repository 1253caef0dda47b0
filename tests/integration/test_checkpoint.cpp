// Integration: train, checkpoint, reload into a fresh pipeline, verify
// identical behaviour — the deploy workflow a downstream user needs.
#include <gtest/gtest.h>

#include <cstdio>

#include "cnn/cnn_pipeline.hpp"
#include "events/dataset.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "nn/model_io.hpp"
#include "snn/snn_pipeline.hpp"
#include "test_util.hpp"

namespace evd {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  std::string path_ = test::unique_temp_path("evd_checkpoint_test.evdm");
  void TearDown() override { std::remove(path_.c_str()); }

  events::ShapeDatasetConfig dataset_config_ = [] {
    events::ShapeDatasetConfig config;
    config.width = 16;
    config.height = 16;
    config.num_classes = 2;
    config.duration_us = 30000;
    return config;
  }();
};

TEST_F(CheckpointTest, GnnPipelineRoundTrip) {
  events::ShapeDataset dataset(dataset_config_);
  std::vector<events::LabelledSample> train, test;
  dataset.make_split(4, 4, train, test);

  gnn::GnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  gnn::GnnPipeline trained(config);
  trained.train(train, core::TrainOptions{4, 5e-3f, 1, false});
  nn::save_params(path_, trained.model().params());

  gnn::GnnPipeline fresh(config);
  nn::load_params(path_, fresh.model().params());
  for (const auto& sample : test) {
    EXPECT_EQ(fresh.classify(sample.stream), trained.classify(sample.stream));
  }
}

TEST_F(CheckpointTest, SnnPipelineRoundTrip) {
  events::ShapeDataset dataset(dataset_config_);
  std::vector<events::LabelledSample> train, test;
  dataset.make_split(4, 4, train, test);

  snn::SnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.hidden = 16;
  config.encoder.steps = 8;
  config.encoder.spatial_factor = 2;
  config.augment_shifts = 0;
  snn::SnnPipeline trained(config);
  trained.train(train, core::TrainOptions{3, 3e-3f, 1, false});
  nn::save_params(path_, trained.net().params());

  snn::SnnPipeline fresh(config);
  nn::load_params(path_, fresh.net().params());
  for (const auto& sample : test) {
    EXPECT_EQ(fresh.classify(sample.stream), trained.classify(sample.stream));
  }
}

TEST_F(CheckpointTest, CnnPipelineRoundTrip) {
  events::ShapeDataset dataset(dataset_config_);
  std::vector<events::LabelledSample> train, test;
  dataset.make_split(4, 4, train, test);

  cnn::CnnPipelineConfig config;
  config.width = 16;
  config.height = 16;
  config.num_classes = 2;
  config.base_filters = 4;
  cnn::CnnPipeline trained(config);
  trained.train(train, core::TrainOptions{3, 3e-3f, 1, false});
  nn::save_params(path_, trained.model().params());

  cnn::CnnPipeline fresh(config);
  nn::load_params(path_, fresh.model().params());
  for (const auto& sample : test) {
    EXPECT_EQ(fresh.classify(sample.stream), trained.classify(sample.stream));
  }
}

TEST_F(CheckpointTest, MismatchedPipelineRejected) {
  gnn::GnnPipelineConfig small;
  small.width = 16;
  small.height = 16;
  small.model.hidden = 8;
  gnn::GnnPipeline source(small);
  nn::save_params(path_, source.model().params());

  gnn::GnnPipelineConfig big = small;
  big.model.hidden = 16;
  gnn::GnnPipeline target(big);
  EXPECT_THROW(nn::load_params(path_, target.model().params()),
               std::runtime_error);
}

}  // namespace
}  // namespace evd
