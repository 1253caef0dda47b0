// Sequential layer container plus a minimal classifier training loop.
#pragma once

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "nn/layer.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax.hpp"

namespace evd::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void push(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  /// The two caller-owned activation buffers forward_into alternates
  /// between.
  using Activations = std::array<Tensor, 2>;

  Tensor forward(const Tensor& input, bool train) override;

  /// Inference through every layer: layer i writes acts[i % 2] and the
  /// last layer writes `output` (neither may be `input`). Allocation-free
  /// once `acts` and `output` have held one pass's shapes
  /// (size_activations gives them those).
  void forward_into(const Tensor& input, Tensor& output,
                    Activations& acts) const;
  /// The same through a local pair (allocates per call).
  void forward_into(const Tensor& input, Tensor& output) const override;

  /// Shape `acts` and `output` from the layer shapes alone, as one
  /// forward_into from an input of `input_shape` would, so that the first
  /// real pass allocates nothing. Runs no layer.
  void size_activations(const std::vector<Index>& input_shape,
                        Activations& acts, Tensor& output) const;

  std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Sequential"; }

  Index size() const noexcept { return static_cast<Index>(layers_.size()); }
  Layer& layer(Index i) { return *layers_.at(static_cast<size_t>(i)); }

 private:
  std::vector<LayerPtr> layers_;
};

/// One training step on (input, label): forward, loss, backward, grad
/// accumulation. Returns (loss, correct?). Caller steps the optimizer.
std::pair<double, bool> train_step(Sequential& model, const Tensor& input,
                                   Index label);

/// Greedy prediction (argmax of logits).
Index predict(Sequential& model, const Tensor& input);

}  // namespace evd::nn
