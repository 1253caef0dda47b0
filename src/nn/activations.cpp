#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/counters.hpp"

namespace evd::nn {

void ReLU::forward_into(const Tensor& input, Tensor& output) const {
  output.ensure_shape(input.shape());
  const float* in = input.data();
  float* out = output.data();
  const Index n = input.numel();
  // A select, not a branch: `v > 0 ? v : 0` sends NaN and -0 to +0 exactly
  // as a masked copy does, and compiles to a compare-and-blend with no
  // data-dependent jump to mispredict on dense frames.
  for (Index i = 0; i < n; ++i) {
    const float v = in[i];
    out[i] = v > 0.0f ? v : 0.0f;
  }
  count_compare(n);
  count_act_read(n * 4);
  count_act_write(n * 4);
}

std::vector<Index> ReLU::output_shape(
    const std::vector<Index>& input_shape) const {
  return input_shape;
}

Tensor ReLU::forward(const Tensor& input, bool train) {
  Tensor output;
  forward_into(input, output);
  if (train) {
    // output > 0 exactly where input > 0, so the mask reads the output.
    mask_ = Tensor(output.shape());
    for (Index i = 0; i < output.numel(); ++i) {
      mask_[i] = output[i] > 0.0f ? 1.0f : 0.0f;
    }
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (mask_.numel() != grad_output.numel()) {
    throw std::logic_error("ReLU::backward: no/mismatched cached forward");
  }
  Tensor grad_input = grad_output;
  for (Index i = 0; i < grad_input.numel(); ++i) grad_input[i] *= mask_[i];
  return grad_input;
}

void LeakyReLU::forward_into(const Tensor& input, Tensor& output) const {
  output.ensure_shape(input.shape());
  for (Index i = 0; i < input.numel(); ++i) {
    const float v = input[i];
    output[i] = v < 0.0f ? v * slope_ : v;
  }
  count_compare(input.numel());
}

std::vector<Index> LeakyReLU::output_shape(
    const std::vector<Index>& input_shape) const {
  return input_shape;
}

Tensor LeakyReLU::forward(const Tensor& input, bool train) {
  if (train) cached_input_ = input;
  Tensor output;
  forward_into(input, output);
  return output;
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  if (cached_input_.numel() != grad_output.numel()) {
    throw std::logic_error("LeakyReLU::backward: no cached forward");
  }
  Tensor grad_input = grad_output;
  for (Index i = 0; i < grad_input.numel(); ++i) {
    if (cached_input_[i] < 0.0f) grad_input[i] *= slope_;
  }
  return grad_input;
}

void Sigmoid::forward_into(const Tensor& input, Tensor& output) const {
  output.ensure_shape(input.shape());
  for (Index i = 0; i < input.numel(); ++i) {
    output[i] = 1.0f / (1.0f + std::exp(-input[i]));
  }
  count_mult(input.numel() * 4);  // exp approximated as ~4 mults
}

std::vector<Index> Sigmoid::output_shape(
    const std::vector<Index>& input_shape) const {
  return input_shape;
}

Tensor Sigmoid::forward(const Tensor& input, bool train) {
  Tensor output;
  forward_into(input, output);
  if (train) cached_output_ = output;
  return output;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  if (cached_output_.numel() != grad_output.numel()) {
    throw std::logic_error("Sigmoid::backward: no cached forward");
  }
  Tensor grad_input = grad_output;
  for (Index i = 0; i < grad_input.numel(); ++i) {
    const float y = cached_output_[i];
    grad_input[i] *= y * (1.0f - y);
  }
  return grad_input;
}

void Tanh::forward_into(const Tensor& input, Tensor& output) const {
  output.ensure_shape(input.shape());
  for (Index i = 0; i < input.numel(); ++i) output[i] = std::tanh(input[i]);
  count_mult(input.numel() * 4);
}

std::vector<Index> Tanh::output_shape(
    const std::vector<Index>& input_shape) const {
  return input_shape;
}

Tensor Tanh::forward(const Tensor& input, bool train) {
  Tensor output;
  forward_into(input, output);
  if (train) cached_output_ = output;
  return output;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  if (cached_output_.numel() != grad_output.numel()) {
    throw std::logic_error("Tanh::backward: no cached forward");
  }
  Tensor grad_input = grad_output;
  for (Index i = 0; i < grad_input.numel(); ++i) {
    const float y = cached_output_[i];
    grad_input[i] *= 1.0f - y * y;
  }
  return grad_input;
}

void Flatten::forward_into(const Tensor& input, Tensor& output) const {
  output.ensure_shape({input.numel()});
  std::copy(input.data(), input.data() + input.numel(), output.data());
}

std::vector<Index> Flatten::output_shape(
    const std::vector<Index>& input_shape) const {
  Index n = 1;
  for (const Index d : input_shape) n *= d;
  return {n};
}

Tensor Flatten::forward(const Tensor& input, bool train) {
  if (train) in_shape_ = input.shape();
  Tensor output;
  forward_into(input, output);
  return output;
}

Tensor Flatten::backward(const Tensor& grad_output) {
  if (in_shape_.empty()) {
    throw std::logic_error("Flatten::backward: no cached forward");
  }
  Tensor grad_input = grad_output;
  grad_input.reshape(in_shape_);
  return grad_input;
}

}  // namespace evd::nn
