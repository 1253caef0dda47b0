// Event-graph classifier: stacked graph convolutions, global mean pooling,
// linear head — with its training loop.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "gnn/graph_conv.hpp"
#include "nn/linear.hpp"

namespace evd::gnn {

struct EventGnnConfig {
  Index hidden = 24;
  Index layers = 3;       ///< Graph-conv layer count.
  Index num_classes = 4;
  std::uint64_t seed = 13;
};

class EventGnn {
 public:
  explicit EventGnn(EventGnnConfig config);

  /// Forward a whole graph; returns logits [num_classes]. The readout is
  /// the concatenation of mean- and max-pooled final node features.
  nn::Tensor forward(const EventGraph& graph, bool train);

  /// Backward from dL/dlogits (requires forward(train=true)).
  void backward(const nn::Tensor& grad_logits);

  /// Mutable handles to every weight; thaws each conv (GraphConv::params).
  std::vector<nn::Param*> params();
  Index param_count() const;

  /// Freeze every conv for serving (GraphConv::freeze).
  void freeze();

  Index conv_count() const noexcept {
    return static_cast<Index>(convs_.size());
  }
  GraphConv& conv(Index l) { return convs_.at(static_cast<size_t>(l)); }
  const GraphConv& conv(Index l) const {
    return convs_.at(static_cast<size_t>(l));
  }
  nn::Linear& head() noexcept { return head_; }
  const nn::Linear& head() const noexcept { return head_; }
  const EventGnnConfig& config() const noexcept { return config_; }

 private:
  EventGnnConfig config_;
  Rng rng_;
  std::vector<GraphConv> convs_;
  nn::Linear head_;
  Index cached_nodes_ = 0;
  std::vector<Index> cached_max_owner_;  ///< Node owning each max-pool slot.
};

struct GnnFitOptions {
  Index epochs = 10;
  float lr = 2e-3f;
  std::uint64_t shuffle_seed = 1;
  bool verbose = false;
};

struct GnnFitReport {
  std::vector<double> epoch_loss;
  std::vector<double> epoch_accuracy;
};

GnnFitReport fit_gnn(EventGnn& model, std::span<const EventGraph> graphs,
                     std::span<const Index> labels,
                     const GnnFitOptions& options);

double evaluate_gnn(EventGnn& model, std::span<const EventGraph> graphs,
                    std::span<const Index> labels);

}  // namespace evd::gnn
