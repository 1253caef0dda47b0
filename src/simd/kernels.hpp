// Dispatching entry points for the three traced hot-span kernels:
//
//   * conv_gemm_block  — the blocked-GEMM microkernel behind
//                        `cnn.conv_forward` (Conv2d::forward_gemm);
//   * lif_step_block   — the LIF membrane update + threshold/spike scatter
//                        behind `snn.step` (SpikingNet::step/forward);
//   * gnn_apply_node   — the neighbor-accumulate inner loop behind
//                        `gnn.message_pass` (GraphConv::apply_node).
//
// Each entry point consults simd::active_tier() and forwards to the scalar,
// AVX2 or NEON build of the same arithmetic. All tiers are bit-identical:
// vector lanes hold *independent outputs* (pixels / neurons / output
// features), each accumulated with unfused multiply+add in exactly the
// per-output order of the scalar reference, so IEEE-754 rounding is
// reproduced lane for lane. The scalar build is the reference
// implementation the `simd.*` oracles compare against.
//
// The spike/feature accumulations walk weight *columns*, which in the
// row-major [out][in] layout are strided — a gather per vector, and a cache
// miss per lane once the matrix outgrows L2. Callers that serve repeatedly
// (SpikingNet, GraphConv) therefore maintain a transposed [in][out] copy and
// pass it as `w_t` / `w_*_t`: the vector tiers then stream contiguous,
// prefetch-friendly rows. Loop interchange keeps each output's accumulation
// order identical (ascending spike / feature order per output), so the
// transposed path is bitwise-equal to the gather path and to the scalar
// reference. Passing nullptr selects the gather fallback.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace evd::simd {

// --- cnn.conv_forward -------------------------------------------------------
// For each output channel oc in [oc_begin, oc_end) and pixel p in
// [px_begin, px_end):
//   out[oc*cols + p] = bias[oc] + sum_{r<rows} w[oc*rows + r] * col[r*cols + p]
// accumulated in ascending r order per pixel (the direct conv's (ic, ky, kx)
// order). `w` is [out_channels, rows] row-major, `col` is the im2col matrix
// [rows, cols], `out` is [out_channels, cols]; `cols` is the row stride, the
// pixel range selects a block of it so the caller can keep one col block
// L2-resident while every output channel crosses it.
void conv_gemm_block(const float* w, const float* bias, const float* col,
                     float* out, Index oc_begin, Index oc_end, Index rows,
                     Index cols, Index px_begin, Index px_end);

// --- snn.step ---------------------------------------------------------------
// LIF update over neurons [n_begin, n_end) of one layer:
//   v' = beta * v[o] + b[o] + sum_{i in spikes} w[o*in_dim + i]   (spike order)
//   if membrane_pre: membrane_pre[o] = v'   (pre-reset, for the surrogate grad)
//   if v' >= theta: append o to spikes_out (ascending), v' = reset_to_zero ?
//                   0 : v' - theta
//   v[o] = v'
// `spikes` are input spike indices in [0, in_dim); `spikes_out` is appended
// in ascending neuron order, matching the scalar chunk loop. `w_t` is the
// transposed weight matrix [in_dim, out_dim] (or nullptr for the gather
// fallback); `out_dim` is its row length — the layer's full neuron count,
// of which [n_begin, n_end) is this call's chunk.
void lif_step_block(float* v, const float* b, const float* w,
                    const float* w_t, Index in_dim, Index out_dim,
                    const Index* spikes, Index spike_count, Index n_begin,
                    Index n_end, float beta, float theta, bool reset_to_zero,
                    float* membrane_pre, std::vector<Index>& spikes_out);

// --- gnn.message_pass -------------------------------------------------------
// Layout-compatible mirror of GraphConv::NeighborRef (asserted at the call
// site): a pointer into the previous layer's feature storage plus the
// spatiotemporal offset to the centre node.
struct GnnNeighbor {
  const float* features = nullptr;
  float dx = 0.0f, dy = 0.0f, dz = 0.0f;
};

// Single-node graph convolution (continuous-kernel message passing):
//   acc_o  = bias[o] + sum_f w_self[o*in + f] * h_self[f]
//   c_j,o  = sum_f w_nbr[o*(in+3) + f] * feat_j[f]
//            + w_nbr[.. in+0]*dx_j + [.. in+1]*dy_j + [.. in+2]*dz_j
//   msg_o  = c_0,o, then replaced when c_j,o > msg_o (ties keep the first);
//            0 with no neighbours
//   out[o] = ReLU(acc_o + msg_o)   for o in [0, out_dim)
// `w_self_t` ([in_dim, out_dim]) and `w_nbr_t` ([in_dim+3, out_dim]) are the
// transposed copies; pass both or neither (nullptr selects gathers).
void gnn_apply_node(const float* w_self, const float* w_self_t,
                    const float* w_nbr, const float* w_nbr_t,
                    const float* bias, Index in_dim, Index out_dim,
                    const float* h_self, const GnnNeighbor* neighbors,
                    Index neighbor_count, float* out);

namespace detail {

// Per-tier builds. The AVX2/NEON symbols exist only when the build carries
// that tier (EVD_SIMD_HAVE_AVX2 / EVD_SIMD_HAVE_NEON); the dispatchers in
// kernels.cpp gate the calls accordingly. The scalar references take no
// transposed weights — they are the pre-simd loops, verbatim.
void conv_gemm_block_scalar(const float* w, const float* bias,
                            const float* col, float* out, Index oc_begin,
                            Index oc_end, Index rows, Index cols,
                            Index px_begin, Index px_end);
void lif_step_block_scalar(float* v, const float* b, const float* w,
                           Index in_dim, const Index* spikes,
                           Index spike_count, Index n_begin, Index n_end,
                           float beta, float theta, bool reset_to_zero,
                           float* membrane_pre, std::vector<Index>& spikes_out);
void gnn_apply_node_scalar(const float* w_self, const float* w_nbr,
                           const float* bias, Index in_dim, Index out_dim,
                           const float* h_self, const GnnNeighbor* neighbors,
                           Index neighbor_count, float* out);

#if defined(EVD_SIMD_HAVE_AVX2)
void conv_gemm_block_avx2(const float* w, const float* bias, const float* col,
                          float* out, Index oc_begin, Index oc_end, Index rows,
                          Index cols, Index px_begin, Index px_end);
void lif_step_block_avx2(float* v, const float* b, const float* w,
                         const float* w_t, Index in_dim, Index out_dim,
                         const Index* spikes, Index spike_count, Index n_begin,
                         Index n_end, float beta, float theta,
                         bool reset_to_zero, float* membrane_pre,
                         std::vector<Index>& spikes_out);
void gnn_apply_node_avx2(const float* w_self, const float* w_self_t,
                         const float* w_nbr, const float* w_nbr_t,
                         const float* bias, Index in_dim, Index out_dim,
                         const float* h_self, const GnnNeighbor* neighbors,
                         Index neighbor_count, float* out);
#endif

#if defined(EVD_SIMD_HAVE_NEON)
void conv_gemm_block_neon(const float* w, const float* bias, const float* col,
                          float* out, Index oc_begin, Index oc_end, Index rows,
                          Index cols, Index px_begin, Index px_end);
void lif_step_block_neon(float* v, const float* b, const float* w,
                         const float* w_t, Index in_dim, Index out_dim,
                         const Index* spikes, Index spike_count, Index n_begin,
                         Index n_end, float beta, float theta,
                         bool reset_to_zero, float* membrane_pre,
                         std::vector<Index>& spikes_out);
void gnn_apply_node_neon(const float* w_self, const float* w_self_t,
                         const float* w_nbr, const float* w_nbr_t,
                         const float* bias, Index in_dim, Index out_dim,
                         const float* h_self, const GnnNeighbor* neighbors,
                         Index neighbor_count, float* out);
#endif

}  // namespace detail
}  // namespace evd::simd
