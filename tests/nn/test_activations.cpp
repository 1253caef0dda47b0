#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/softmax.hpp"
#include "test_util.hpp"

namespace evd::nn {
namespace {

TEST(ReLU, ClampsNegativesAndReportsSparsity) {
  ReLU relu;
  Tensor x({4});
  x.vec() = {-1.0f, 0.0f, 2.0f, -3.0f};
  const Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_DOUBLE_EQ(y.zero_fraction(), 0.75);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU relu;
  Tensor x({3});
  x.vec() = {-1.0f, 1.0f, 2.0f};
  relu.forward(x, true);
  Tensor g = Tensor::full({3}, 4.0f);
  const Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 4.0f);
  EXPECT_FLOAT_EQ(gx[2], 4.0f);
}

TEST(LeakyReLU, SlopeOnNegatives) {
  LeakyReLU leaky(0.1f);
  Tensor x({2});
  x.vec() = {-2.0f, 3.0f};
  const Tensor y = leaky.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], -0.2f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
}

TEST(Sigmoid, ValuesAndRange) {
  Sigmoid sigmoid;
  Tensor x({3});
  x.vec() = {0.0f, 100.0f, -100.0f};
  const Tensor y = sigmoid.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.5f);
  EXPECT_NEAR(y[1], 1.0f, 1e-6);
  EXPECT_NEAR(y[2], 0.0f, 1e-6);
}

TEST(Tanh, Values) {
  Tanh tanh_layer;
  Tensor x({2});
  x.vec() = {0.0f, 1.0f};
  const Tensor y = tanh_layer.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_NEAR(y[1], std::tanh(1.0), 1e-6);
}

template <typename L>
void gradcheck_activation() {
  Rng rng(3);
  L layer;
  Tensor x = Tensor::randn({6}, rng);
  const Tensor out = layer.forward(x, true);
  const auto ce = softmax_cross_entropy(out, 2);
  const Tensor gx = layer.backward(ce.grad);
  auto loss = [&](const Tensor& probe) {
    return softmax_cross_entropy(layer.forward(probe, false), 2).loss;
  };
  test::expect_gradients_close(gx, test::numeric_gradient(loss, x));
}

TEST(Activations, GradCheckLeakyReLU) { gradcheck_activation<LeakyReLU>(); }
TEST(Activations, GradCheckSigmoid) { gradcheck_activation<Sigmoid>(); }
TEST(Activations, GradCheckTanh) { gradcheck_activation<Tanh>(); }

TEST(Flatten, ReshapesAndRestores) {
  Flatten flatten;
  Tensor x({2, 3, 4});
  const Tensor y = flatten.forward(x, true);
  EXPECT_EQ(y.rank(), 1);
  EXPECT_EQ(y.numel(), 24);
  Tensor g({24});
  const Tensor gx = flatten.backward(g);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Activations, BackwardBeforeForwardThrows) {
  ReLU relu;
  EXPECT_THROW(relu.backward(Tensor({2})), std::logic_error);
  Flatten flatten;
  EXPECT_THROW(flatten.backward(Tensor({2})), std::logic_error);
}

}  // namespace
}  // namespace evd::nn
