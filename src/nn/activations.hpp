// Element-wise activation layers. ReLU is the sparsity workhorse of the
// CNN pipeline (paper §III-B [50]); the others support the SNN conversion
// path and ablations.
#pragma once

#include "nn/layer.hpp"

namespace evd::nn {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  void forward_into(const Tensor& input, Tensor& output) const override;
  std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor mask_;  ///< 1 where input > 0 (equivalently, output > 0).
};

class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(float slope = 0.01f) : slope_(slope) {}
  Tensor forward(const Tensor& input, bool train) override;
  void forward_into(const Tensor& input, Tensor& output) const override;
  std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "LeakyReLU"; }

 private:
  float slope_;
  Tensor cached_input_;
};

class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  void forward_into(const Tensor& input, Tensor& output) const override;
  std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }

 private:
  Tensor cached_output_;
};

class Tanh : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  void forward_into(const Tensor& input, Tensor& output) const override;
  std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  Tensor cached_output_;
};

/// Flatten [C,H,W] (or any shape) to [N]; shape bookkeeping only.
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  void forward_into(const Tensor& input, Tensor& output) const override;
  std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<Index> in_shape_;
};

}  // namespace evd::nn
