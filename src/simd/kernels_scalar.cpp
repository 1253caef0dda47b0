// Scalar reference builds of the three hot-span kernels. These are the
// loops the vector tiers are proved equivalent against (oracles
// simd.conv_vs_scalar / simd.snn_step_vs_scalar /
// simd.gnn_accumulate_vs_scalar), lifted verbatim from the pre-simd
// Conv2d::forward_gemm, SpikingNet::step and GraphConv::apply_node bodies.
// Keep them boring: no manual vector code, no reassociation — per-output
// accumulation order is the contract.
#include <algorithm>
#include <vector>

#include "simd/kernels.hpp"

namespace evd::simd::detail {

void conv_gemm_block_scalar(const float* w, const float* bias,
                            const float* col, float* out, Index oc_begin,
                            Index oc_end, Index rows, Index cols,
                            Index px_begin, Index px_end) {
  // Pixel blocks sized to keep a col row slice resident in L1 (same cache
  // blocking as the original GEMM loop; per-pixel accumulation order over r
  // is unaffected by the blocking, so any [px_begin, px_end) partition the
  // caller picks yields identical bits).
  constexpr Index kPixelBlock = 1024;
  for (Index oc = oc_begin; oc < oc_end; ++oc) {
    const float* w_oc = w + oc * rows;
    const float b = bias[oc];
    float* out_oc = out + oc * cols;
    for (Index p0 = px_begin; p0 < px_end; p0 += kPixelBlock) {
      const Index p1 = std::min(px_end, p0 + kPixelBlock);
      std::fill(out_oc + p0, out_oc + p1, b);
      for (Index r = 0; r < rows; ++r) {
        const float wv = w_oc[r];
        const float* c_row = col + r * cols;
        for (Index p = p0; p < p1; ++p) {
          out_oc[p] += wv * c_row[p];
        }
      }
    }
  }
}

void lif_step_block_scalar(float* v, const float* b, const float* w,
                           Index in_dim, const Index* spikes,
                           Index spike_count, Index n_begin, Index n_end,
                           float beta, float theta, bool reset_to_zero,
                           float* membrane_pre,
                           std::vector<Index>& spikes_out) {
  for (Index o = n_begin; o < n_end; ++o) {
    float vo = beta * v[o] + b[o];
    const float* w_row = w + o * in_dim;
    for (Index s = 0; s < spike_count; ++s) vo += w_row[spikes[s]];
    // Membrane cached pre-reset for the surrogate gradient.
    if (membrane_pre != nullptr) membrane_pre[o] = vo;
    if (vo >= theta) {
      spikes_out.push_back(o);
      vo = reset_to_zero ? 0.0f : vo - theta;
    }
    v[o] = vo;
  }
}

void gnn_apply_node_scalar(const float* w_self, const float* w_nbr,
                           const float* bias, Index in_dim, Index out_dim,
                           const float* h_self, const GnnNeighbor* neighbors,
                           Index neighbor_count, float* out) {
  for (Index o = 0; o < out_dim; ++o) {
    float acc = bias[o];
    const float* ws = w_self + o * in_dim;
    for (Index f = 0; f < in_dim; ++f) acc += ws[f] * h_self[f];
    float msg = 0.0f;
    bool has_msg = false;
    const float* wn = w_nbr + o * (in_dim + 3);
    for (Index j = 0; j < neighbor_count; ++j) {
      const GnnNeighbor& nb = neighbors[j];
      float contrib = 0.0f;
      for (Index f = 0; f < in_dim; ++f) contrib += wn[f] * nb.features[f];
      contrib += wn[in_dim + 0] * nb.dx + wn[in_dim + 1] * nb.dy +
                 wn[in_dim + 2] * nb.dz;
      if (!has_msg || contrib > msg) {
        msg = contrib;
        has_msg = true;
      }
    }
    const float pre = acc + (has_msg ? msg : 0.0f);
    out[o] = pre > 0.0f ? pre : 0.0f;
  }
}

}  // namespace evd::simd::detail
