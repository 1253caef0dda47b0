#include <gtest/gtest.h>

#include <cstring>

#include "nn/softmax.hpp"
#include "snn/snn_model.hpp"
#include "test_util.hpp"

namespace evd::snn {
namespace {

SpikeTrain random_train(Index steps, Index size, double density,
                        std::uint64_t seed) {
  SpikeTrain train;
  train.steps = steps;
  train.size = size;
  train.active.resize(static_cast<size_t>(steps));
  Rng rng(seed);
  for (Index t = 0; t < steps; ++t) {
    for (Index i = 0; i < size; ++i) {
      if (rng.bernoulli(density)) {
        train.active[static_cast<size_t>(t)].push_back(i);
      }
    }
  }
  return train;
}

SpikingNetConfig small_config() {
  SpikingNetConfig config;
  config.layer_sizes = {6, 5, 3};
  config.lif.beta = 0.9f;
  config.lif.threshold = 1.0f;
  return config;
}

TEST(SpikingNet, ForwardShapeAndDeterminism) {
  Rng rng(1);
  SpikingNet net(small_config(), rng);
  const auto train = random_train(8, 6, 0.4, 2);
  const nn::Tensor a = net.forward(train, false);
  const nn::Tensor b = net.forward(train, false);
  ASSERT_EQ(a.numel(), 3);
  for (Index i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(SpikingNet, InputSizeMismatchThrows) {
  Rng rng(2);
  SpikingNet net(small_config(), rng);
  EXPECT_THROW(net.forward(random_train(4, 7, 0.5, 3), false),
               std::invalid_argument);
}

TEST(SpikingNet, BackwardWithoutForwardThrows) {
  Rng rng(3);
  SpikingNet net(small_config(), rng);
  EXPECT_THROW(net.backward(nn::Tensor({3})), std::logic_error);
}

TEST(SpikingNet, BpttGradCheckReadoutWeights) {
  // Numeric gradient over the READOUT weights is exact (no spike
  // discontinuity between the loss and those weights).
  Rng rng(4);
  SpikingNet net(small_config(), rng);
  const auto train = random_train(6, 6, 0.5, 5);

  const nn::Tensor logits = net.forward(train, true);
  const auto ce = nn::softmax_cross_entropy(logits, 1);
  net.backward(ce.grad);

  auto& w_out = net.weight(1);
  auto loss_of = [&](const nn::Tensor& w) {
    nn::Tensor saved = w_out.value;
    w_out.value = w;
    const double loss =
        nn::softmax_cross_entropy(net.forward(train, false), 1).loss;
    w_out.value = saved;
    return loss;
  };
  test::expect_gradients_close(
      w_out.grad, test::numeric_gradient(loss_of, w_out.value, 1e-3f), 5e-2);
}

TEST(SpikingNet, BpttGradCheckReadoutBias) {
  Rng rng(5);
  SpikingNet net(small_config(), rng);
  const auto train = random_train(6, 6, 0.5, 6);
  const nn::Tensor logits = net.forward(train, true);
  const auto ce = nn::softmax_cross_entropy(logits, 0);
  net.backward(ce.grad);

  auto& b_out = net.bias(1);
  auto loss_of = [&](const nn::Tensor& b) {
    nn::Tensor saved = b_out.value;
    b_out.value = b;
    const double loss =
        nn::softmax_cross_entropy(net.forward(train, false), 0).loss;
    b_out.value = saved;
    return loss;
  };
  test::expect_gradients_close(
      b_out.grad, test::numeric_gradient(loss_of, b_out.value, 1e-3f), 5e-2);
}

TEST(SpikingNet, HiddenGradientsAreFiniteAndNonZero) {
  // Through the spiking nonlinearity the surrogate gradient is biased by
  // construction, so we check structure rather than numeric equality.
  Rng rng(6);
  SpikingNet net(small_config(), rng);
  const auto train = random_train(8, 6, 0.6, 7);
  const nn::Tensor logits = net.forward(train, true);
  const auto ce = nn::softmax_cross_entropy(logits, 2);
  net.backward(ce.grad);
  double norm = 0.0;
  for (Index i = 0; i < net.weight(0).grad.numel(); ++i) {
    const float g = net.weight(0).grad[i];
    EXPECT_TRUE(std::isfinite(g));
    norm += std::abs(g);
  }
  EXPECT_GT(norm, 0.0);
}

TEST(SpikingNet, StreamingStepMatchesBatchForward) {
  Rng rng(7);
  SpikingNet net(small_config(), rng);
  const auto train = random_train(10, 6, 0.4, 8);

  const nn::Tensor batch_logits = net.forward(train, false);
  SnnState state = net.make_state();
  nn::Tensor streaming_logits;
  for (Index t = 0; t < train.steps; ++t) {
    streaming_logits = net.step(state, train.active[static_cast<size_t>(t)]);
  }
  for (Index i = 0; i < 3; ++i) {
    EXPECT_NEAR(streaming_logits[i], batch_logits[i], 1e-4f);
  }
}

/// Every streaming step's logits, then the final membranes, concatenated.
std::vector<float> step_trace(const SpikingNet& net, const SpikeTrain& train) {
  SnnState state = net.make_state();
  std::vector<float> trace;
  for (Index t = 0; t < train.steps; ++t) {
    const nn::Tensor logits =
        net.step(state, train.active[static_cast<size_t>(t)]);
    trace.insert(trace.end(), logits.vec().begin(), logits.vec().end());
  }
  for (const auto& v : state.membrane) {
    trace.insert(trace.end(), v.begin(), v.end());
  }
  return trace;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(SpikingNet, WeightHandleThawsSoEditedWeightsAreServed) {
  const auto train = random_train(10, 6, 0.4, 8);
  Rng rng(21);
  SpikingNet net(small_config(), rng);
  EXPECT_FALSE(net.frozen());
  net.freeze();
  ASSERT_TRUE(net.frozen());
  const std::vector<float> before = step_trace(net, train);

  nn::Param& w0 = net.weight(0);
  EXPECT_FALSE(net.frozen());
  for (Index i = 0; i < w0.value.numel(); ++i) w0.value[i] += 0.5f;

  Rng fresh_rng(21);
  SpikingNet fresh(small_config(), fresh_rng);
  fresh.weight(0).value = w0.value;
  fresh.freeze();
  const std::vector<float> expected = step_trace(fresh, train);
  EXPECT_FALSE(bitwise_equal(before, expected));

  // Thawed (gather fallback), then re-frozen from the edited weights.
  EXPECT_TRUE(bitwise_equal(step_trace(net, train), expected));
  net.freeze();
  EXPECT_TRUE(bitwise_equal(step_trace(net, train), expected));
}

TEST(SpikingNet, SpikeActivityReported) {
  Rng rng(8);
  SpikingNet net(small_config(), rng);
  const auto train = random_train(10, 6, 0.8, 9);
  net.forward(train, false);
  EXPECT_GE(net.last_hidden_spikes(), 0);
  EXPECT_GE(net.last_spike_density(), 0.0);
  EXPECT_LE(net.last_spike_density(), 1.0);
}

TEST(SpikingNet, FitLearnsRatePatternTask) {
  // Class 0: first half of inputs active; class 1: second half.
  SpikingNetConfig config;
  config.layer_sizes = {8, 12, 2};
  Rng rng(9);
  SpikingNet net(config, rng);

  std::vector<SpikeTrain> inputs;
  std::vector<Index> labels;
  Rng data_rng(10);
  for (int s = 0; s < 30; ++s) {
    const Index label = s % 2;
    SpikeTrain train;
    train.steps = 10;
    train.size = 8;
    train.active.resize(10);
    for (Index t = 0; t < 10; ++t) {
      for (Index i = 0; i < 8; ++i) {
        const bool in_class_block = (label == 0) ? (i < 4) : (i >= 4);
        if (in_class_block && data_rng.bernoulli(0.8)) {
          train.active[static_cast<size_t>(t)].push_back(i);
        }
      }
    }
    inputs.push_back(std::move(train));
    labels.push_back(label);
  }
  SnnFitOptions options;
  options.epochs = 15;
  options.lr = 5e-3f;
  const auto report = fit_snn(net, inputs, labels, options);
  EXPECT_GT(report.epoch_accuracy.back(), 0.9);
  EXPECT_GT(evaluate_snn(net, inputs, labels), 0.9);
}

TEST(SpikingNet, ConfigValidation) {
  Rng rng(11);
  SpikingNetConfig config;
  config.layer_sizes = {4};
  EXPECT_THROW(SpikingNet(config, rng), std::invalid_argument);
}

TEST(SpikingNet, ParamCount) {
  Rng rng(12);
  SpikingNet net(small_config(), rng);
  EXPECT_EQ(net.param_count(), 6 * 5 + 5 + 5 * 3 + 3);
}

}  // namespace
}  // namespace evd::snn
