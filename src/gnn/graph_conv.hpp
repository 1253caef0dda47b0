// Spatiotemporal graph convolution with manual backprop (paper §IV).
//
// A continuous-kernel convolution in the spirit of SplineCNN/EdgeConv
// ([68],[69]), simplified to a linear kernel on the concatenation of the
// neighbour feature and the spatiotemporal offset:
//
//   h'_i = ReLU( W_s h_i + max_{j in N(i)} W_n [h_j ; p_j - p_i] + b )
//
// with the max taken per output feature, and 0 for a node with no
// neighbours.
//
// Because the offset (dx, dy, dt) enters the kernel, relative event timing
// is available to every layer — the property the paper credits for
// event-graphs exploiting "precise timing information deep into the
// network".
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "gnn/graph.hpp"
#include "nn/layer.hpp"

namespace evd::gnn {

class GraphConv {
 public:
  GraphConv(Index in_features, Index out_features, Rng& rng);

  /// Batch forward over all nodes. `h` is [N, in_features]; returns
  /// [N, out_features]. Caches for backward when train=true. The graph must
  /// outlive the backward call.
  nn::Tensor forward(const EventGraph& graph, const nn::Tensor& h, bool train);

  /// Returns dL/dh given dL/dh'. Accumulates parameter gradients.
  nn::Tensor backward(const nn::Tensor& grad_output);

  /// Single-node evaluation for asynchronous (per-event) inference: the
  /// neighbour list carries pointers into layer-(l-1) feature storage plus
  /// the offset to the centre node.
  struct NeighborRef {
    const float* features = nullptr;
    float dx = 0.0f, dy = 0.0f, dz = 0.0f;
  };
  void apply_node(const float* h_self, std::span<const NeighborRef> neighbors,
                  float* out) const;

  /// Mutable weight handles. Thaws: drops the transposed copies, since the
  /// caller may write through the handles at any time.
  std::vector<nn::Param*> params() {
    transposed_ = {};
    return {&w_self_, &w_nbr_, &bias_};
  }

  /// Build the transposed weight copies from the current weights; a no-op
  /// while they exist. Serving freezes once, on the control thread.
  void freeze();
  bool frozen() const noexcept { return !transposed_.self.empty(); }

  Index in_features() const noexcept { return in_; }
  Index out_features() const noexcept { return out_; }

  /// MACs for evaluating one node with `degree` in-neighbours.
  std::int64_t node_macs(Index degree) const noexcept {
    return out_ * (in_ + degree * (in_ + 3));
  }

 private:
  Index in_, out_;
  nn::Param w_self_;  ///< [out, in]
  nn::Param w_nbr_;   ///< [out, in + 3]
  nn::Param bias_;    ///< [out]

  struct TransposedWeights {
    std::vector<float> self;  ///< [in][out]
    std::vector<float> nbr;   ///< [in+3][out]
  };

  // Transposed weight copies feeding the per-event kernel's contiguous path
  // (simd::gnn_apply_node's w_*_t): per-feature weight columns become
  // sequential row reads instead of strided gathers. freeze() builds them,
  // params() drops them, and while empty the kernel gathers instead,
  // bitwise equal. Both run on the control thread, never while a session
  // on this model is pumped, so apply_node() reads without a lock.
  TransposedWeights transposed_;

  const EventGraph* cached_graph_ = nullptr;
  nn::Tensor cached_input_;
  nn::Tensor cached_pre_;  ///< Pre-ReLU activations [N, out].
  std::vector<Index> cached_argmax_;  ///< Winning neighbour per (i, o).
};

}  // namespace evd::gnn
