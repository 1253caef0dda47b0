#include "gnn/graph_conv.hpp"

#include <cstddef>
#include <stdexcept>

#include "nn/counters.hpp"
#include "nn/init.hpp"
#include "simd/kernels.hpp"

namespace evd::gnn {

GraphConv::GraphConv(Index in_features, Index out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_self_("w_self", nn::he_normal({out_features, in_features},
                                      in_features, rng)),
      w_nbr_("w_nbr", nn::he_normal({out_features, in_features + 3},
                                    in_features + 3, rng)),
      bias_("bias", nn::Tensor({out_features})) {}

nn::Tensor GraphConv::forward(const EventGraph& graph, const nn::Tensor& h,
                              bool train) {
  const Index n = graph.node_count();
  if (h.rank() != 2 || h.dim(0) != n || h.dim(1) != in_) {
    throw std::invalid_argument("GraphConv::forward: feature shape mismatch");
  }
  nn::Tensor pre({n, out_});
  if (train) cached_argmax_.assign(static_cast<size_t>(n * out_), -1);
  std::int64_t macs = 0;

  for (Index i = 0; i < n; ++i) {
    const auto neighbors = graph.neighbors(i);
    const auto& pi = graph.node(i).position;

    for (Index o = 0; o < out_; ++o) {
      float acc = bias_.value[o];
      const float* ws = w_self_.value.data() + o * in_;
      for (Index f = 0; f < in_; ++f) acc += ws[f] * h.at2(i, f);

      float msg = 0.0f;
      bool has_msg = false;
      Index best_j = -1;
      const float* wn = w_nbr_.value.data() + o * (in_ + 3);
      for (const Index j : neighbors) {
        const auto& pj = graph.node(j).position;
        float contrib = 0.0f;
        for (Index f = 0; f < in_; ++f) contrib += wn[f] * h.at2(j, f);
        contrib += wn[in_ + 0] * (pj.x - pi.x);
        contrib += wn[in_ + 1] * (pj.y - pi.y);
        contrib += wn[in_ + 2] * (pj.z - pi.z);
        if (!has_msg || contrib > msg) {
          msg = contrib;
          best_j = j;
          has_msg = true;
        }
      }
      pre.at2(i, o) = acc + (has_msg ? msg : 0.0f);
      if (train) cached_argmax_[static_cast<size_t>(i * out_ + o)] = best_j;
    }
    macs += node_macs(static_cast<Index>(neighbors.size()));
  }

  if (nn::active_counter() != nullptr) {
    nn::count_mac(macs);
    nn::count_param_read((w_self_.value.numel() + w_nbr_.value.numel() +
                          bias_.value.numel()) * 4);
    nn::count_act_read(h.numel() * 4);
    nn::count_act_write(n * out_ * 4);
  }

  if (train) {
    cached_graph_ = &graph;
    cached_input_ = h;
    cached_pre_ = pre;
  }

  nn::Tensor out = pre;
  for (Index k = 0; k < out.numel(); ++k) {
    if (out[k] < 0.0f) out[k] = 0.0f;
  }
  nn::count_compare(out.numel());
  return out;
}

nn::Tensor GraphConv::backward(const nn::Tensor& grad_output) {
  if (cached_graph_ == nullptr) {
    throw std::logic_error("GraphConv::backward: no cached forward");
  }
  const EventGraph& graph = *cached_graph_;
  const Index n = graph.node_count();
  if (grad_output.rank() != 2 || grad_output.dim(0) != n ||
      grad_output.dim(1) != out_) {
    throw std::invalid_argument("GraphConv::backward: grad shape mismatch");
  }

  nn::Tensor grad_h({n, in_});
  for (Index i = 0; i < n; ++i) {
    const auto& pi = graph.node(i).position;

    for (Index o = 0; o < out_; ++o) {
      if (cached_pre_.at2(i, o) <= 0.0f) continue;  // ReLU gate
      const float g = grad_output.at2(i, o);
      if (g == 0.0f) continue;
      bias_.grad[o] += g;
      float* dws = w_self_.grad.data() + o * in_;
      const float* ws = w_self_.value.data() + o * in_;
      for (Index f = 0; f < in_; ++f) {
        dws[f] += g * cached_input_.at2(i, f);
        grad_h.at2(i, f) += g * ws[f];
      }
      float* dwn = w_nbr_.grad.data() + o * (in_ + 3);
      const float* wn = w_nbr_.value.data() + o * (in_ + 3);
      const Index j = cached_argmax_[static_cast<size_t>(i * out_ + o)];
      if (j < 0) continue;
      const auto& pj = graph.node(j).position;
      for (Index f = 0; f < in_; ++f) {
        dwn[f] += g * cached_input_.at2(j, f);
        grad_h.at2(j, f) += g * wn[f];
      }
      dwn[in_ + 0] += g * (pj.x - pi.x);
      dwn[in_ + 1] += g * (pj.y - pi.y);
      dwn[in_ + 2] += g * (pj.z - pi.z);
    }
  }
  return grad_h;
}

void GraphConv::freeze() {
  if (frozen()) return;
  TransposedWeights& t = transposed_;
  t.self.resize(static_cast<size_t>(in_) * static_cast<size_t>(out_));
  t.nbr.resize(static_cast<size_t>(in_ + 3) * static_cast<size_t>(out_));
  const float* ws = w_self_.value.data();
  const float* wn = w_nbr_.value.data();
  for (Index o = 0; o < out_; ++o) {
    for (Index f = 0; f < in_; ++f) {
      t.self[static_cast<size_t>(f * out_ + o)] = ws[o * in_ + f];
    }
    for (Index f = 0; f < in_ + 3; ++f) {
      t.nbr[static_cast<size_t>(f * out_ + o)] = wn[o * (in_ + 3) + f];
    }
  }
}

void GraphConv::apply_node(const float* h_self,
                           std::span<const NeighborRef> neighbors,
                           float* out) const {
  // NeighborRef and simd::GnnNeighbor are layout twins so the neighbor
  // array can be handed to the dispatched kernel without repacking.
  static_assert(sizeof(simd::GnnNeighbor) == sizeof(NeighborRef));
  static_assert(offsetof(simd::GnnNeighbor, features) ==
                offsetof(NeighborRef, features));
  static_assert(offsetof(simd::GnnNeighbor, dx) == offsetof(NeighborRef, dx));
  static_assert(offsetof(simd::GnnNeighbor, dy) == offsetof(NeighborRef, dy));
  static_assert(offsetof(simd::GnnNeighbor, dz) == offsetof(NeighborRef, dz));
  // Unfrozen, nullptr selects the kernel's gather fallback.
  const bool use_t = frozen();
  simd::gnn_apply_node(w_self_.value.data(),
                       use_t ? transposed_.self.data() : nullptr,
                       w_nbr_.value.data(),
                       use_t ? transposed_.nbr.data() : nullptr,
                       bias_.value.data(), in_, out_, h_self,
                       reinterpret_cast<const simd::GnnNeighbor*>(
                           neighbors.data()),
                       static_cast<Index>(neighbors.size()), out);
}

}  // namespace evd::gnn
