#include "gnn/gnn_model.hpp"

#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "nn/optimizer.hpp"
#include "nn/softmax.hpp"

namespace evd::gnn {

EventGnn::EventGnn(EventGnnConfig config)
    : config_(config),
      rng_(config.seed),
      head_(2 * (config.layers > 0 ? config.hidden
                                   : EventGraph::kInputFeatures),
            config.num_classes, rng_) {
  Index in = EventGraph::kInputFeatures;
  for (Index l = 0; l < config_.layers; ++l) {
    convs_.emplace_back(in, config_.hidden, rng_);
    in = config_.hidden;
  }
}

nn::Tensor EventGnn::forward(const EventGraph& graph, bool train) {
  const Index n = graph.node_count();
  if (n == 0) {
    // Empty graph: classify from the bias alone.
    nn::Tensor zero({head_.in_features()});
    return head_.forward(zero, train);
  }
  cached_nodes_ = n;

  const std::vector<float> raw = graph.input_features();
  nn::Tensor h({n, EventGraph::kInputFeatures});
  std::copy(raw.begin(), raw.end(), h.data());

  for (auto& conv : convs_) h = conv.forward(graph, h, train);

  // Global mean + max pool, concatenated.
  const Index f = h.dim(1);
  nn::Tensor pooled({2 * f});
  if (train) cached_max_owner_.assign(static_cast<size_t>(f), 0);
  for (Index c = 0; c < f; ++c) {
    double sum = 0.0;
    float best = h.at2(0, c);
    Index owner = 0;
    for (Index i = 0; i < n; ++i) {
      const float v = h.at2(i, c);
      sum += v;
      if (v > best) {
        best = v;
        owner = i;
      }
    }
    pooled[c] = static_cast<float>(sum / static_cast<double>(n));
    pooled[f + c] = best;
    if (train) cached_max_owner_[static_cast<size_t>(c)] = owner;
  }

  return head_.forward(pooled, train);
}

void EventGnn::backward(const nn::Tensor& grad_logits) {
  if (cached_nodes_ == 0) {
    throw std::logic_error("EventGnn::backward: no cached forward");
  }
  nn::Tensor grad_pooled = head_.backward(grad_logits);
  const Index n = cached_nodes_;
  const Index f = grad_pooled.numel() / 2;
  nn::Tensor grad_h({n, f});
  const float inv = 1.0f / static_cast<float>(n);
  for (Index c = 0; c < f; ++c) {
    // Mean slot spreads evenly; max slot routes to the winning node.
    for (Index i = 0; i < n; ++i) grad_h.at2(i, c) = grad_pooled[c] * inv;
    grad_h.at2(cached_max_owner_[static_cast<size_t>(c)], c) +=
        grad_pooled[f + c];
  }
  for (auto it = convs_.rbegin(); it != convs_.rend(); ++it) {
    grad_h = it->backward(grad_h);
  }
}

std::vector<nn::Param*> EventGnn::params() {
  std::vector<nn::Param*> all;
  for (auto& conv : convs_) {
    for (auto* p : conv.params()) all.push_back(p);
  }
  for (auto* p : head_.params()) all.push_back(p);
  return all;
}

Index EventGnn::param_count() const {
  // Counted from the shapes: params() would thaw the convs.
  Index n = head_.out_features() *
            (head_.in_features() + (head_.has_bias() ? 1 : 0));
  for (const auto& conv : convs_) {
    // w_self [out, in], w_nbr [out, in + 3], bias [out].
    n += conv.out_features() * (2 * conv.in_features() + 4);
  }
  return n;
}

void EventGnn::freeze() {
  for (auto& conv : convs_) conv.freeze();
}

GnnFitReport fit_gnn(EventGnn& model, std::span<const EventGraph> graphs,
                     std::span<const Index> labels,
                     const GnnFitOptions& options) {
  if (graphs.size() != labels.size()) {
    throw std::invalid_argument("fit_gnn: graphs/labels mismatch");
  }
  nn::Adam optimizer(model.params(), options.lr);
  Rng rng(options.shuffle_seed);
  std::vector<size_t> order(graphs.size());
  std::iota(order.begin(), order.end(), 0);

  GnnFitReport report;
  for (Index epoch = 0; epoch < options.epochs; ++epoch) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_int(i)]);
    }
    double loss_sum = 0.0;
    Index correct = 0;
    for (const size_t idx : order) {
      const nn::Tensor logits = model.forward(graphs[idx], /*train=*/true);
      const auto ce = nn::softmax_cross_entropy(logits, labels[idx]);
      model.backward(ce.grad);
      optimizer.step();
      loss_sum += ce.loss;
      correct += (logits.argmax() == labels[idx]) ? 1 : 0;
    }
    report.epoch_loss.push_back(loss_sum /
                                static_cast<double>(graphs.size()));
    report.epoch_accuracy.push_back(static_cast<double>(correct) /
                                    static_cast<double>(graphs.size()));
    if (options.verbose) {
      std::printf("  [gnn] epoch %lld loss %.4f acc %.3f\n",
                  static_cast<long long>(epoch), report.epoch_loss.back(),
                  report.epoch_accuracy.back());
    }
  }
  return report;
}

double evaluate_gnn(EventGnn& model, std::span<const EventGraph> graphs,
                    std::span<const Index> labels) {
  if (graphs.empty()) return 0.0;
  Index correct = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    correct += (model.forward(graphs[i], false).argmax() == labels[i]) ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(graphs.size());
}

}  // namespace evd::gnn
