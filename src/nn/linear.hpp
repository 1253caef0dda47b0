// Fully-connected layer with manual backward pass.
#pragma once

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace evd::nn {

class Linear : public Layer {
 public:
  /// Weight is [out_features, in_features]; He-initialised.
  Linear(Index in_features, Index out_features, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input, bool train) override;
  void forward_into(const Tensor& input, Tensor& output) const override;
  std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const override;

  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Linear"; }

  Index in_features() const noexcept { return in_; }
  Index out_features() const noexcept { return out_; }
  Param& weight() noexcept { return weight_; }
  Param& bias() noexcept { return bias_; }
  bool has_bias() const noexcept { return has_bias_; }

 private:
  Index in_, out_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;
};

}  // namespace evd::nn
