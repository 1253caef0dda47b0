// Tier dispatch for the hot-span kernels. Every entry point reads the
// process-wide tier once and forwards. The SNN/GNN kernels gather weight
// columns only when the caller passes no transposed copy; that fallback
// additionally drops to scalar when the row stride could overflow the
// 32-bit gather indices (never hit by realistic layer sizes, but the
// kernels must be total).
#include "simd/kernels.hpp"

#include <cstdint>

#include "simd/dispatch.hpp"

namespace evd::simd {
namespace {

/// Max lane offset is (kWidth-1) * stride; keep the product comfortably
/// inside int32 for an 8-lane gather.
constexpr Index kMaxGatherStride = INT32_MAX / 8;

}  // namespace

void conv_gemm_block(const float* w, const float* bias, const float* col,
                     float* out, Index oc_begin, Index oc_end, Index rows,
                     Index cols, Index px_begin, Index px_end) {
  switch (active_tier()) {
#if defined(EVD_SIMD_HAVE_AVX2)
    case Tier::Avx2:
      detail::conv_gemm_block_avx2(w, bias, col, out, oc_begin, oc_end, rows,
                                   cols, px_begin, px_end);
      return;
#endif
#if defined(EVD_SIMD_HAVE_NEON)
    case Tier::Neon:
      detail::conv_gemm_block_neon(w, bias, col, out, oc_begin, oc_end, rows,
                                   cols, px_begin, px_end);
      return;
#endif
    default: break;
  }
  detail::conv_gemm_block_scalar(w, bias, col, out, oc_begin, oc_end, rows,
                                 cols, px_begin, px_end);
}

void lif_step_block(float* v, const float* b, const float* w,
                    const float* w_t, Index in_dim, Index out_dim,
                    const Index* spikes, Index spike_count, Index n_begin,
                    Index n_end, float beta, float theta, bool reset_to_zero,
                    float* membrane_pre, std::vector<Index>& spikes_out) {
  if (w_t != nullptr || in_dim <= kMaxGatherStride) {
    switch (active_tier()) {
#if defined(EVD_SIMD_HAVE_AVX2)
      case Tier::Avx2:
        detail::lif_step_block_avx2(v, b, w, w_t, in_dim, out_dim, spikes,
                                    spike_count, n_begin, n_end, beta, theta,
                                    reset_to_zero, membrane_pre, spikes_out);
        return;
#endif
#if defined(EVD_SIMD_HAVE_NEON)
      case Tier::Neon:
        detail::lif_step_block_neon(v, b, w, w_t, in_dim, out_dim, spikes,
                                    spike_count, n_begin, n_end, beta, theta,
                                    reset_to_zero, membrane_pre, spikes_out);
        return;
#endif
      default: break;
    }
  }
  detail::lif_step_block_scalar(v, b, w, in_dim, spikes, spike_count, n_begin,
                                n_end, beta, theta, reset_to_zero,
                                membrane_pre, spikes_out);
}

void gnn_apply_node(const float* w_self, const float* w_self_t,
                    const float* w_nbr, const float* w_nbr_t,
                    const float* bias, Index in_dim, Index out_dim,
                    const float* h_self, const GnnNeighbor* neighbors,
                    Index neighbor_count, float* out) {
  const bool transposed = w_self_t != nullptr && w_nbr_t != nullptr;
  if (transposed || in_dim + 3 <= kMaxGatherStride) {
    switch (active_tier()) {
#if defined(EVD_SIMD_HAVE_AVX2)
      case Tier::Avx2:
        detail::gnn_apply_node_avx2(w_self, transposed ? w_self_t : nullptr,
                                    w_nbr, transposed ? w_nbr_t : nullptr,
                                    bias, in_dim, out_dim, h_self, neighbors,
                                    neighbor_count, out);
        return;
#endif
#if defined(EVD_SIMD_HAVE_NEON)
      case Tier::Neon:
        detail::gnn_apply_node_neon(w_self, transposed ? w_self_t : nullptr,
                                    w_nbr, transposed ? w_nbr_t : nullptr,
                                    bias, in_dim, out_dim, h_self, neighbors,
                                    neighbor_count, out);
        return;
#endif
      default: break;
    }
  }
  detail::gnn_apply_node_scalar(w_self, w_nbr, bias, in_dim, out_dim, h_self,
                                neighbors, neighbor_count, out);
}

}  // namespace evd::simd
