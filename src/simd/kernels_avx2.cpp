// AVX2 builds of the hot-span kernels. This TU is the only one compiled
// with -mavx2 -mfma (plus -ffp-contract=off so the compiler cannot fuse
// the deliberately unfused mul+add chains); nothing here executes unless
// the runtime dispatcher saw AVX2+FMA in CPUID, so no illegal instructions
// can leak onto older x86 parts.
#define EVD_SIMD_VEC_AVX2 1
#include "simd/vec.hpp"

#include "simd/kernels_vec_impl.hpp"

namespace evd::simd::detail {

void conv_gemm_block_avx2(const float* w, const float* bias, const float* col,
                          float* out, Index oc_begin, Index oc_end, Index rows,
                          Index cols, Index px_begin, Index px_end) {
  vecimpl::conv_gemm_block(w, bias, col, out, oc_begin, oc_end, rows, cols,
                           px_begin, px_end);
}

void lif_step_block_avx2(float* v, const float* b, const float* w,
                         const float* w_t, Index in_dim, Index out_dim,
                         const Index* spikes, Index spike_count, Index n_begin,
                         Index n_end, float beta, float theta,
                         bool reset_to_zero, float* membrane_pre,
                         std::vector<Index>& spikes_out) {
  vecimpl::lif_step_block(v, b, w, w_t, in_dim, out_dim, spikes, spike_count,
                          n_begin, n_end, beta, theta, reset_to_zero,
                          membrane_pre, spikes_out);
}

void gnn_apply_node_avx2(const float* w_self, const float* w_self_t,
                         const float* w_nbr, const float* w_nbr_t,
                         const float* bias, Index in_dim, Index out_dim,
                         const float* h_self, const GnnNeighbor* neighbors,
                         Index neighbor_count, float* out) {
  vecimpl::gnn_apply_node(w_self, w_self_t, w_nbr, w_nbr_t, bias, in_dim,
                          out_dim, h_self, neighbors, neighbor_count, out);
}

}  // namespace evd::simd::detail
