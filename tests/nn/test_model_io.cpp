#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "cnn/dense_model.hpp"
#include "nn/linear.hpp"
#include "nn/model_io.hpp"
#include "snn/snn_model.hpp"
#include "test_util.hpp"

namespace evd::nn {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  std::string path_ = test::unique_temp_path("evd_model_io_test.evdm");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(ModelIoTest, RoundTripLinear) {
  Rng rng(1);
  Linear source(6, 4, rng);
  save_params(path_, source.params());

  Rng rng2(99);
  Linear target(6, 4, rng2);
  ASSERT_NE(source.weight().value.vec(), target.weight().value.vec());
  load_params(path_, target.params());
  EXPECT_EQ(source.weight().value.vec(), target.weight().value.vec());
  EXPECT_EQ(source.bias().value.vec(), target.bias().value.vec());
}

TEST_F(ModelIoTest, RoundTripCnnPreservesPredictions) {
  Rng rng(2);
  cnn::CnnModelConfig config;
  config.height = 16;
  config.width = 16;
  config.base_filters = 4;
  auto source = cnn::make_event_cnn(config, rng);
  Tensor input = Tensor::randn({2, 16, 16}, rng);
  const Tensor before = source.forward(input, false);

  save_params(path_, source.params());
  Rng rng2(777);
  auto target = cnn::make_event_cnn(config, rng2);
  load_params(path_, target.params());
  const Tensor after = target.forward(input, false);
  for (Index i = 0; i < before.numel(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
}

TEST_F(ModelIoTest, RoundTripSpikingNet) {
  Rng rng(3);
  snn::SpikingNetConfig config;
  config.layer_sizes = {8, 10, 3};
  snn::SpikingNet source(config, rng);
  save_params(path_, source.params());
  Rng rng2(4);
  snn::SpikingNet target(config, rng2);
  load_params(path_, target.params());
  EXPECT_EQ(source.weight(0).value.vec(), target.weight(0).value.vec());
  EXPECT_EQ(source.bias(1).value.vec(), target.bias(1).value.vec());
}

TEST_F(ModelIoTest, ArchitectureMismatchThrows) {
  Rng rng(5);
  Linear source(6, 4, rng);
  save_params(path_, source.params());
  Linear wrong_shape(4, 6, rng);
  EXPECT_THROW(load_params(path_, wrong_shape.params()), std::runtime_error);
  Linear no_bias(6, 4, rng, /*bias=*/false);
  EXPECT_THROW(load_params(path_, no_bias.params()), std::runtime_error);
}

TEST_F(ModelIoTest, CorruptFileThrows) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "not a checkpoint";
  }
  Rng rng(6);
  Linear model(2, 2, rng);
  EXPECT_THROW(load_params(path_, model.params()), std::runtime_error);
}

}  // namespace
}  // namespace evd::nn
