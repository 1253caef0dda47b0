#include "nn/linear.hpp"

#include <stdexcept>

#include "common/parallel.hpp"
#include "nn/counters.hpp"
#include "nn/init.hpp"

namespace evd::nn {
namespace {

/// Chunk size for loops over output features: keep per-chunk work around a
/// few thousand MACs so small layers stay serial (shape-only, so the split
/// never depends on the thread count).
Index feature_grain(Index inner) {
  const Index grain = 4096 / (inner > 0 ? inner : 1);
  return grain < 1 ? 1 : grain;
}

}  // namespace

Linear::Linear(Index in_features, Index out_features, Rng& rng, bool bias)
    : in_(in_features),
      out_(out_features),
      has_bias_(bias),
      weight_("weight", he_normal({out_features, in_features}, in_features, rng)),
      bias_("bias", Tensor({out_features})) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Linear: non-positive feature count");
  }
}

void Linear::forward_into(const Tensor& input, Tensor& output) const {
  if (input.numel() != in_) {
    throw std::invalid_argument("Linear::forward: input numel " +
                                std::to_string(input.numel()) + " != " +
                                std::to_string(in_));
  }
  output.ensure_shape({out_});
  const float* x = input.data();
  const float* wts = weight_.value.data();
  float* y = output.data();
  par::parallel_for(0, out_, feature_grain(in_), [&](Index begin, Index end) {
    for (Index o = begin; o < end; ++o) {
      const float* w = wts + o * in_;
      float acc = has_bias_ ? bias_.value[o] : 0.0f;
      for (Index i = 0; i < in_; ++i) acc += w[i] * x[i];
      y[o] = acc;
    }
  });

  if (active_counter() != nullptr) {
    count_mac(out_ * in_);
    Index zeros = 0;
    for (Index i = 0; i < in_; ++i) zeros += (x[i] == 0.0f) ? 1 : 0;
    count_zero_skippable(zeros * out_);
    count_param_read(static_cast<std::int64_t>(weight_.value.numel() +
                                               (has_bias_ ? out_ : 0)) * 4);
    count_act_read(in_ * 4);
    count_act_write(out_ * 4);
  }
}

std::vector<Index> Linear::output_shape(
    const std::vector<Index>& input_shape) const {
  Index n = 1;
  for (const Index d : input_shape) n *= d;
  if (n != in_) {
    throw std::invalid_argument("Linear::forward: input numel " +
                                std::to_string(n) + " != " +
                                std::to_string(in_));
  }
  return {out_};
}

Tensor Linear::forward(const Tensor& input, bool train) {
  Tensor output;
  forward_into(input, output);
  if (train) cached_input_ = input;
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  if (grad_output.numel() != out_) {
    throw std::invalid_argument("Linear::backward: grad numel mismatch");
  }
  if (cached_input_.numel() != in_) {
    throw std::logic_error("Linear::backward: no cached forward");
  }
  Tensor grad_input({in_});
  const float* g = grad_output.data();
  const float* x = cached_input_.data();
  // Weight/bias gradients partition by output feature; the input gradient
  // (W^T g) partitions by input feature — two passes, no shared writes.
  par::parallel_for(0, out_, feature_grain(in_), [&](Index begin, Index end) {
    for (Index o = begin; o < end; ++o) {
      const float go = g[o];
      float* dw = weight_.grad.data() + o * in_;
      for (Index i = 0; i < in_; ++i) dw[i] += go * x[i];
      if (has_bias_) bias_.grad[o] += go;
    }
  });
  par::parallel_for(0, in_, feature_grain(out_), [&](Index begin, Index end) {
    const float* w = weight_.value.data();
    for (Index i = begin; i < end; ++i) {
      float acc = 0.0f;
      for (Index o = 0; o < out_; ++o) acc += g[o] * w[o * in_ + i];
      grad_input[i] = acc;
    }
  });
  return grad_input;
}

std::vector<Param*> Linear::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace evd::nn
