#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/counters.hpp"

namespace evd::nn {

Tensor ReLU::forward(const Tensor& input, bool train) {
  Tensor output = input;
  if (train) mask_ = Tensor(input.shape());
  for (Index i = 0; i < output.numel(); ++i) {
    if (output[i] > 0.0f) {
      if (train) mask_[i] = 1.0f;
    } else {
      output[i] = 0.0f;
    }
  }
  count_compare(output.numel());
  count_act_read(input.numel() * 4);
  count_act_write(output.numel() * 4);
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

Tensor LeakyReLU::forward(const Tensor& input, bool train) {
  if (train) cached_input_ = input;
  Tensor output = input;
  for (Index i = 0; i < output.numel(); ++i) {
    if (output[i] < 0.0f) output[i] *= slope_;
  }
  count_compare(output.numel());
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

Tensor Sigmoid::forward(const Tensor& input, bool train) {
  Tensor output = input;
  for (Index i = 0; i < output.numel(); ++i) {
    output[i] = 1.0f / (1.0f + std::exp(-output[i]));
  }
  if (train) cached_output_ = output;
  count_mult(output.numel() * 4);  // exp approximated as ~4 mults
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

Tensor Tanh::forward(const Tensor& input, bool train) {
  Tensor output = input;
  for (Index i = 0; i < output.numel(); ++i) output[i] = std::tanh(output[i]);
  if (train) cached_output_ = output;
  count_mult(output.numel() * 4);
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

Tensor Flatten::forward(const Tensor& input, bool train) {
  if (train) in_shape_ = input.shape();
  Tensor output = input;
  output.reshape({input.numel()});
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
