#include <gtest/gtest.h>

#include "nn/pooling.hpp"
#include "nn/softmax.hpp"
#include "test_util.hpp"

namespace evd::nn {
namespace {

TEST(MaxPool2d, SelectsWindowMaximum) {
  MaxPool2d pool(2);
  Tensor x({1, 2, 2});
  x.at3(0, 0, 0) = 1.0f;
  x.at3(0, 0, 1) = 4.0f;
  x.at3(0, 1, 0) = -1.0f;
  x.at3(0, 1, 1) = 2.0f;
  const Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmaxOnly) {
  MaxPool2d pool(2);
  Tensor x({1, 2, 2});
  x.at3(0, 0, 1) = 4.0f;
  pool.forward(x, true);
  Tensor g({1, 1, 1});
  g[0] = 5.0f;
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx.at3(0, 0, 1), 5.0f);
  EXPECT_FLOAT_EQ(gx.at3(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(gx.at3(0, 1, 1), 0.0f);
}

TEST(MaxPool2d, InferenceForwardBetweenTrainingForwardAndBackward) {
  // An inference forward of another input (same shape, different maxima)
  // must not move the gradient routing of the training forward before it.
  Tensor a({1, 2, 4});
  a.at3(0, 0, 1) = 4.0f;
  a.at3(0, 1, 2) = 3.0f;
  Tensor b({1, 2, 4});
  b.at3(0, 1, 0) = 7.0f;
  b.at3(0, 0, 3) = 6.0f;
  Tensor g({1, 1, 2});
  g.vec() = {5.0f, -2.0f};

  MaxPool2d alone(2);
  alone.forward(a, true);
  const Tensor expected = alone.backward(g);

  MaxPool2d interleaved(2);
  interleaved.forward(a, true);
  interleaved.forward(b, false);
  EXPECT_EQ(interleaved.backward(g).vec(), expected.vec());
  EXPECT_FLOAT_EQ(expected.at3(0, 0, 1), 5.0f);
  EXPECT_FLOAT_EQ(expected.at3(0, 1, 2), -2.0f);
}

TEST(MaxPool2d, GradCheck) {
  Rng rng(1);
  MaxPool2d pool(2);
  Tensor x = Tensor::randn({2, 4, 4}, rng);
  Tensor out = pool.forward(x, true);
  out.reshape({out.numel()});
  const auto ce = softmax_cross_entropy(out, 0);
  Tensor grad = ce.grad;
  grad.reshape({2, 2, 2});
  const Tensor gx = pool.backward(grad);
  auto loss = [&](const Tensor& probe) {
    Tensor o = pool.forward(probe, false);
    o.reshape({o.numel()});
    return softmax_cross_entropy(o, 0).loss;
  };
  test::expect_gradients_close(gx, test::numeric_gradient(loss, x));
}

TEST(AvgPool2d, AveragesWindow) {
  AvgPool2d pool(2);
  Tensor x({1, 2, 2});
  x.vec() = {1.0f, 2.0f, 3.0f, 6.0f};
  const Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(AvgPool2d, BackwardSpreadsEvenly) {
  AvgPool2d pool(2);
  Tensor x({1, 2, 2});
  pool.forward(x, true);
  Tensor g({1, 1, 1});
  g[0] = 8.0f;
  const Tensor gx = pool.backward(g);
  for (Index i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gx[i], 2.0f);
}

TEST(GlobalAvgPool, ReducesToChannelMeans) {
  GlobalAvgPool pool;
  Tensor x({2, 2, 2});
  for (Index i = 0; i < 4; ++i) x[i] = 4.0f;   // channel 0
  for (Index i = 4; i < 8; ++i) x[i] = -2.0f;  // channel 1
  const Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.numel(), 2);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
}

TEST(GlobalAvgPool, GradCheck) {
  Rng rng(2);
  GlobalAvgPool pool;
  Tensor x = Tensor::randn({3, 2, 2}, rng);
  const Tensor out = pool.forward(x, true);
  const auto ce = softmax_cross_entropy(out, 1);
  const Tensor gx = pool.backward(ce.grad);
  auto loss = [&](const Tensor& probe) {
    return softmax_cross_entropy(pool.forward(probe, false), 1).loss;
  };
  test::expect_gradients_close(gx, test::numeric_gradient(loss, x));
}

TEST(Pooling, ErrorsOnBadInput) {
  MaxPool2d max_pool(4);
  EXPECT_THROW(max_pool.forward(Tensor({1, 2, 2}), false),
               std::invalid_argument);
  EXPECT_THROW(max_pool.backward(Tensor({1, 1, 1})), std::logic_error);
  AvgPool2d avg_pool(2);
  EXPECT_THROW(avg_pool.forward(Tensor({4}), false), std::invalid_argument);
  GlobalAvgPool gap;
  EXPECT_THROW(gap.forward(Tensor({4}), false), std::invalid_argument);
}

TEST(MaxPool2d, CustomStrideOverlapping) {
  MaxPool2d pool(2, 1);
  Tensor x({1, 3, 3});
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_EQ(y.dim(2), 2);
}

}  // namespace
}  // namespace evd::nn
