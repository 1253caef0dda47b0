// Bitwise tests for the layers' inference kernels (Layer::forward_into).
//
// The reference loops below are the plain per-element definitions —
// masked ReLU, branchy max-pool — written out so that the branch-free
// kernels are held to their exact results, NaN and signed zero included.
// The poisoning tests fill every output (and the per-thread conv scratch)
// with NaN before the call, so an element a kernel forgets to write shows.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "test_util.hpp"

namespace evd::nn {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::uint32_t bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

/// Shape and every element's bit pattern equal (so -0 != +0, NaN == NaN).
void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (Index i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << what << " element " << i << ": got " << got[i] << ", want "
        << want[i];
  }
}

/// Random values laced with the cases branch-free selects must get right:
/// ±0, NaN, ±inf, and runs of equal values.
Tensor special_values(std::vector<Index> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::randn(std::move(shape), rng);
  const float specials[] = {-0.0f, 0.0f, kNaN, kInf, -kInf, 1.5f, -1.5f};
  for (Index i = 0; i < x.numel(); ++i) {
    if (rng.uniform() < 0.5) {
      x[i] = specials[rng.uniform_int(std::size(specials))];
    }
  }
  return x;
}

/// Mostly-zero event-frame-like input (the Sparse conv's domain).
Tensor event_frame(std::vector<Index> shape, double density,
                   std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(std::move(shape));
  for (Index i = 0; i < x.numel(); ++i) {
    if (rng.uniform() < density) x[i] = static_cast<float>(rng.normal(0, 1));
  }
  return x;
}

/// Fill the calling thread's conv scratch, large enough for any layer in
/// these tests: the patch with NaN, the live-pixel integral image with
/// small scrambled counts (so a border left unzeroed can make a live
/// window read as dead).
void poison_conv_scratch() {
  ConvScratch& scratch = thread_conv_scratch();
  scratch.patch.assign(std::max<size_t>(scratch.patch.size(), 1 << 16), kNaN);
  scratch.live.resize(std::max<size_t>(scratch.live.size(), 1 << 12));
  for (size_t i = 0; i < scratch.live.size(); ++i) {
    scratch.live[i] = static_cast<std::int32_t>((i * 7919) % 13) - 6;
  }
}

/// ReLU as a masked copy: keep what is > 0, zero the rest.
Tensor reference_relu(const Tensor& x) {
  Tensor y = x;
  for (Index i = 0; i < y.numel(); ++i) {
    if (y[i] > 0.0f) continue;
    y[i] = 0.0f;
  }
  return y;
}

/// Max-pool with a branch per tap: replace the best only when strictly
/// greater, in (wy, wx) order; `argmax` gets each winner's flat index.
Tensor reference_max_pool(const Tensor& x, Index window, Index stride,
                          std::vector<Index>& argmax) {
  const Index c = x.dim(0), ih = x.dim(1), iw = x.dim(2);
  const Index oh = (ih - window) / stride + 1;
  const Index ow = (iw - window) / stride + 1;
  Tensor y({c, oh, ow});
  argmax.assign(static_cast<size_t>(y.numel()), 0);
  for (Index ch = 0; ch < c; ++ch) {
    for (Index oy = 0; oy < oh; ++oy) {
      for (Index ox = 0; ox < ow; ++ox) {
        float best = -kInf;
        Index best_idx = 0;
        for (Index wy = 0; wy < window; ++wy) {
          for (Index wx = 0; wx < window; ++wx) {
            const Index yy = oy * stride + wy;
            const Index xx = ox * stride + wx;
            const float v = x.at3(ch, yy, xx);
            if (v > best) {
              best = v;
              best_idx = (ch * ih + yy) * iw + xx;
            }
          }
        }
        y.at3(ch, oy, ox) = best;
        argmax[static_cast<size_t>((ch * oh + oy) * ow + ox)] = best_idx;
      }
    }
  }
  return y;
}

/// Distinct per-element gradients, so a misrouted one shows.
Tensor ramp(const std::vector<Index>& shape) {
  Tensor g(shape);
  for (Index i = 0; i < g.numel(); ++i) g[i] = static_cast<float>(i + 1);
  return g;
}

TEST(ForwardIntoReLU, BitwiseEqualsMaskedCopy) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Tensor x = special_values({3, 7, 9}, seed);
    const Tensor want = reference_relu(x);
    ReLU relu;
    Tensor out(x.shape());
    out.fill(kNaN);
    relu.forward_into(x, out);
    expect_bitwise_equal(out, want, "forward_into");
    expect_bitwise_equal(relu.forward(x, false), want, "forward");

    // Training: same output, and the mask (read back through backward)
    // is 1 exactly where the input is > 0.
    expect_bitwise_equal(relu.forward(x, true), want, "forward(train)");
    const Tensor g = ramp(x.shape());
    Tensor want_grad = g;
    for (Index i = 0; i < x.numel(); ++i) {
      want_grad[i] = g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
    }
    expect_bitwise_equal(relu.backward(g), want_grad, "backward");
  }
}

TEST(ForwardIntoMaxPool2d, BitwiseEqualsBranchyLoop) {
  // Window 2 runs the unrolled kernel, the others the generic one.
  for (const auto& [window, stride] :
       {std::tuple<Index, Index>{2, 2}, {2, 1}, {3, 3}, {3, 2}, {1, 1}}) {
    for (const std::uint64_t seed : {4u, 5u}) {
      const Tensor x = special_values({3, 9, 11}, seed);
      std::vector<Index> argmax;
      const Tensor want = reference_max_pool(x, window, stride, argmax);
      const std::string what = "window " + std::to_string(window) +
                               " stride " + std::to_string(stride);
      MaxPool2d pool(window, stride);
      Tensor out(want.shape());
      out.fill(kNaN);
      pool.forward_into(x, out);
      expect_bitwise_equal(out, want, what + " forward_into");
      expect_bitwise_equal(pool.forward(x, true), want, what + " train");

      // The training argmax, read back through backward's routing.
      const Tensor g = ramp(want.shape());
      Tensor want_grad(x.shape());
      for (Index i = 0; i < g.numel(); ++i) {
        want_grad[argmax[static_cast<size_t>(i)]] += g[i];
      }
      expect_bitwise_equal(pool.backward(g), want_grad, what + " backward");
    }
  }
}

TEST(ForwardIntoMaxPool2d, TiesAndNaNWindows) {
  MaxPool2d pool(2);
  Tensor x({1, 2, 6});
  // Window 0: -0 before +0 keeps -0. Window 1: +0 before -0 keeps +0.
  // Window 2: all NaN stays -inf.
  x.vec() = {-0.0f, 0.0f, 0.0f, -0.0f, kNaN, kNaN,
             0.0f,  -0.0f, -0.0f, 0.0f, kNaN, kNaN};
  Tensor out;
  pool.forward_into(x, out);
  ASSERT_EQ(out.numel(), 3);
  EXPECT_EQ(bits(out[0]), bits(-0.0f));
  EXPECT_EQ(bits(out[1]), bits(0.0f));
  EXPECT_EQ(out[2], -kInf);
}

/// Every layer kind: forward_into into a NaN-filled output of
/// output_shape() equals forward(x, false) bit for bit.
TEST(ForwardIntoLayers, WriteEveryElementOfAPoisonedOutput) {
  Rng rng(9);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<ReLU>());
  layers.push_back(std::make_unique<LeakyReLU>(0.1f));
  layers.push_back(std::make_unique<Sigmoid>());
  layers.push_back(std::make_unique<Tanh>());
  layers.push_back(std::make_unique<Flatten>());
  layers.push_back(std::make_unique<MaxPool2d>(2));
  layers.push_back(std::make_unique<MaxPool2d>(3, 2));
  layers.push_back(std::make_unique<AvgPool2d>(2));
  layers.push_back(std::make_unique<GlobalAvgPool>());
  layers.push_back(std::make_unique<Linear>(4 * 8 * 10, 6, rng));
  const Tensor x = event_frame({4, 8, 10}, 0.4, 10);
  for (const auto& layer : layers) {
    const Tensor want = layer->forward(x, false);
    Tensor out(layer->output_shape(x.shape()));
    out.fill(kNaN);
    layer->forward_into(x, out);
    expect_bitwise_equal(out, want, layer->name());
  }
}

TEST(ForwardIntoConv2d, EveryAlgoWritesEveryElement) {
  const Index original = par::thread_count();
  for (const Index threads : {1, 4}) {
    par::set_thread_count(threads);
    for (const auto& [kernel, stride, padding] :
         {std::tuple<Index, Index, Index>{3, 1, 1},
          {3, 2, 0},
          {5, 1, 2},
          {2, 3, 1},
          {3, 1, 0},
          {3, 2, 3}}) {
      const std::string shape = "threads " + std::to_string(threads) +
                                " k " + std::to_string(kernel) + " stride " +
                                std::to_string(stride) + " pad " +
                                std::to_string(padding);
      Rng rng(21);
      Conv2d direct(Conv2dConfig{3, 5, kernel, stride, padding,
                                 ConvAlgo::Direct},
                    rng);
      const Tensor x = event_frame({3, 13, 11}, 0.3, 22);
      const Tensor want = direct.forward(x, false);
      for (const ConvAlgo algo :
           {ConvAlgo::Direct, ConvAlgo::Gemm, ConvAlgo::Sparse}) {
        Rng unused(0);
        Conv2d conv(
            Conv2dConfig{3, 5, kernel, stride, padding, algo}, unused);
        conv.weight().value = direct.weight().value;
        conv.bias().value = direct.bias().value;
        const std::string what =
            shape + " algo " + std::to_string(static_cast<int>(algo));
        expect_bitwise_equal(conv.forward(x, false), want, what + " forward");
        Tensor out(conv.output_shape(x.shape()));
        out.fill(kNaN);
        poison_conv_scratch();
        conv.forward_into(x, out);
        expect_bitwise_equal(out, want, what + " forward_into");
      }
    }
  }
  par::set_thread_count(original);
}

TEST(ForwardIntoConv2d, PatchGrowsToTheLargestLayerOnly) {
  Rng rng(31);
  Conv2d small(Conv2dConfig{1, 2, 3, 1, 1, ConvAlgo::Gemm}, rng);
  Conv2d large(Conv2dConfig{2, 2, 3, 1, 1, ConvAlgo::Gemm}, rng);
  ConvScratch& scratch = thread_conv_scratch();
  scratch.patch.clear();
  scratch.patch.shrink_to_fit();
  Tensor out;
  large.forward_into(Tensor({2, 8, 8}), out);
  const size_t grown = scratch.patch.size();
  EXPECT_EQ(grown, static_cast<size_t>(2 * 9 * 64));
  const float* storage = scratch.patch.data();
  small.forward_into(Tensor({1, 8, 8}), out);
  EXPECT_EQ(scratch.patch.size(), grown);
  EXPECT_EQ(scratch.patch.data(), storage);
}

Sequential event_cnn(Rng& rng) {
  Sequential model;
  Conv2dConfig stem{2, 4, 3, 1, 1};
  stem.frame_input = true;
  model.emplace<Conv2d>(stem, rng);
  model.emplace<ReLU>();
  model.emplace<MaxPool2d>(2);
  model.emplace<Conv2d>(Conv2dConfig{4, 8, 3, 1, 1}, rng);
  model.emplace<ReLU>();
  model.emplace<MaxPool2d>(2);
  model.emplace<Conv2d>(Conv2dConfig{8, 16, 3, 1, 1}, rng);
  model.emplace<ReLU>();
  model.emplace<GlobalAvgPool>();
  model.emplace<Linear>(16, 3, rng);
  return model;
}

TEST(ForwardIntoSequential, MatchesForwardWithoutReallocating) {
  Rng rng(41);
  Sequential model = event_cnn(rng);
  Sequential::Activations acts;
  Tensor out;
  model.size_activations({2, 16, 16}, acts, out);
  EXPECT_EQ(out.shape(), std::vector<Index>({3}));
  const float* a0 = acts[0].data();
  const float* a1 = acts[1].data();
  const float* o = out.data();
  // Frames of different density through the same buffers.
  for (const double density : {0.9, 0.02, 0.0, 0.3}) {
    const Tensor x = event_frame({2, 16, 16}, density, 42);
    const Tensor want = model.forward(x, false);
    for (Tensor& t : acts) t.fill(kNaN);
    out.fill(kNaN);
    poison_conv_scratch();
    {
      const ScopedConvAlgo route(density < 0.1 ? ConvAlgo::Sparse
                                               : ConvAlgo::Auto);
      std::as_const(model).forward_into(x, out, acts);
    }
    expect_bitwise_equal(out, want,
                         "density " + std::to_string(density));
    EXPECT_EQ(acts[0].data(), a0);
    EXPECT_EQ(acts[1].data(), a1);
    EXPECT_EQ(out.data(), o);
  }
}

TEST(ForwardIntoSequential, OutputShapeAndEmptyModel) {
  Rng rng(43);
  Sequential model = event_cnn(rng);
  EXPECT_EQ(model.output_shape({2, 16, 16}), std::vector<Index>({3}));
  EXPECT_THROW(model.output_shape({3, 16, 16}), std::invalid_argument);

  const Sequential empty;
  const Tensor x = special_values({2, 3}, 44);
  Tensor out;
  empty.forward_into(x, out);
  expect_bitwise_equal(out, x, "empty model");
}

}  // namespace
}  // namespace evd::nn
