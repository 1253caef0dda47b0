// Layer interface for the from-scratch network stack.
//
// Layers own their parameters and their parameter gradients, cache whatever
// they need from the forward pass, and implement an explicit backward pass.
// There is no autograd graph: Sequential simply calls backward in reverse
// order, which is all the architectures in this library need.
//
// Inference has one definition per layer, forward_into: const, writing into
// an output the caller keeps. forward(x, train) is that call plus the
// training caches, so the two can never disagree.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace evd::nn {

/// A learnable parameter: value + gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. `train` enables caching for backward. Bitwise equal to
  /// forward_into for any `train`.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Inference into caller-owned `output` (which must not alias `input`).
  /// `output` is reshaped only when its shape differs, so a reused output
  /// allocates nothing, and every element is written. Writes no layer
  /// state: one model may serve many threads at once. Operation counts
  /// (nn::OpCounter) are those of forward().
  virtual void forward_into(const Tensor& input, Tensor& output) const = 0;

  /// Output shape for an input of shape `input_shape`; throws where
  /// forward would reject the input. Lets callers size forward_into
  /// outputs without running a forward.
  virtual std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const = 0;

  /// Backward pass: gradient w.r.t. input given gradient w.r.t. output.
  /// Accumulates into parameter grads. Requires a prior forward(train=true).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Mutable views of this layer's parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  virtual std::string name() const = 0;

  /// Total learnable scalar count.
  Index param_count() {
    Index n = 0;
    for (auto* p : params()) n += p->value.numel();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace evd::nn
