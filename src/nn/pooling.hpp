// Max and average pooling over [C, H, W] feature volumes.
#pragma once

#include "nn/layer.hpp"

namespace evd::nn {

class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(Index window, Index stride = 0)
      : window_(window), stride_(stride > 0 ? stride : window) {}

  Tensor forward(const Tensor& input, bool train) override;
  void forward_into(const Tensor& input, Tensor& output) const override;
  std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2d"; }

 private:
  /// The one max-pool loop nest; kTrain also records each output's argmax.
  /// kWindow > 0 fixes the window at compile time (the common 2x2 unrolls).
  template <bool kTrain, Index kWindow>
  void pool(const Tensor& input, Tensor& output, Index* argmax) const;

  Index window_, stride_;
  Tensor cached_input_;
  std::vector<Index> argmax_;  ///< Flat input index of each output's max.
};

class AvgPool2d : public Layer {
 public:
  explicit AvgPool2d(Index window, Index stride = 0)
      : window_(window), stride_(stride > 0 ? stride : window) {}

  Tensor forward(const Tensor& input, bool train) override;
  void forward_into(const Tensor& input, Tensor& output) const override;
  std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "AvgPool2d"; }

 private:
  Index window_, stride_;
  std::vector<Index> in_shape_;
};

/// Global average pool: [C, H, W] -> [C].
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  void forward_into(const Tensor& input, Tensor& output) const override;
  std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  std::vector<Index> in_shape_;
};

}  // namespace evd::nn
