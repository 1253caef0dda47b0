#include "nn/sequential.hpp"

namespace evd::nn {

Tensor Sequential::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, train);
  return x;
}

void Sequential::forward_into(const Tensor& input, Tensor& output,
                              Activations& acts) const {
  if (layers_.empty()) {
    output = input;
    return;
  }
  const Tensor* x = &input;
  const size_t last = layers_.size() - 1;
  for (size_t i = 0; i < last; ++i) {
    Tensor& y = acts[i % 2];
    layers_[i]->forward_into(*x, y);
    x = &y;
  }
  layers_[last]->forward_into(*x, output);
}

void Sequential::forward_into(const Tensor& input, Tensor& output) const {
  Activations acts;
  forward_into(input, output, acts);
}

void Sequential::size_activations(const std::vector<Index>& input_shape,
                                  Activations& acts, Tensor& output) const {
  // The same sequence of shapes a pass gives each buffer, so each ends with
  // the capacity (data and rank) that pass needs.
  std::vector<Index> shape = input_shape;
  for (size_t i = 0; i < layers_.size(); ++i) {
    shape = layers_[i]->output_shape(shape);
    (i + 1 == layers_.size() ? output : acts[i % 2]).ensure_shape(shape);
  }
}

std::vector<Index> Sequential::output_shape(
    const std::vector<Index>& input_shape) const {
  std::vector<Index> shape = input_shape;
  for (const auto& layer : layers_) shape = layer->output_shape(shape);
  return shape;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_) {
    for (auto* p : layer->params()) all.push_back(p);
  }
  return all;
}

std::pair<double, bool> train_step(Sequential& model, const Tensor& input,
                                   Index label) {
  const Tensor logits = model.forward(input, /*train=*/true);
  const CrossEntropy ce = softmax_cross_entropy(logits, label);
  model.backward(ce.grad);
  return {ce.loss, logits.argmax() == label};
}

Index predict(Sequential& model, const Tensor& input) {
  return model.forward(input, /*train=*/false).argmax();
}

}  // namespace evd::nn
