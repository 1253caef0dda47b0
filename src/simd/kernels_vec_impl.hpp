// Width-generic vector builds of the three hot-span kernels, written once
// against the VecF abstraction (vec.hpp) and compiled per tier by
// kernels_avx2.cpp / kernels_neon.cpp. Include vec.hpp (with the tier
// macro set) before this header.
//
// Bitwise contract with kernels_scalar.cpp: lanes hold independent outputs
// (pixels / neurons / output features); every per-output operation is the
// scalar reference's operation, in the scalar reference's order, using
// unfused mul+add. The only things vectorization changes are which outputs
// advance together and how spikes are extracted from the fired mask — both
// invisible in the results.
//
// The SNN and GNN kernels have two weight-access strategies. With a
// transposed weight copy (w_t, [in][out]) they stream contiguous rows —
// loop interchange that keeps each output's accumulation order (ascending
// spike / feature index) intact, so it is still bitwise. Without one they
// gather strided weight columns from the row-major matrix. Same arithmetic,
// different memory behaviour: the gather path goes latency-bound once the
// matrix outgrows L2, the transposed path stays at streaming bandwidth.
#pragma once

#include <vector>

#include "simd/kernels.hpp"

namespace evd::simd::detail {
namespace vecimpl {

// --- cnn.conv_forward: register-tiled GEMM microkernel ----------------------
// NOC output channels advance together over a strip of 2 vectors of pixels,
// holding all NOC*2 accumulators in registers across the full r loop: col
// traffic drops by NOC× versus the scalar kernel and each accumulator sees
// the same ascending-r mul+add chain as the scalar per-pixel loop.
template <int NOC>
inline void conv_tile(const float* w, const float* bias, const float* col,
                      float* out, Index oc0, Index rows, Index cols,
                      Index px_begin, Index px_end) {
  constexpr Index W = VecF::kWidth;
  Index p = px_begin;
  for (; p + 2 * W <= px_end; p += 2 * W) {
    VecF acc0[NOC], acc1[NOC];
    for (int t = 0; t < NOC; ++t) {
      acc0[t] = VecF::broadcast(bias[oc0 + t]);
      acc1[t] = acc0[t];
    }
    for (Index r = 0; r < rows; ++r) {
      const float* c_row = col + r * cols + p;
      const VecF c0 = VecF::load(c_row);
      const VecF c1 = VecF::load(c_row + W);
      for (int t = 0; t < NOC; ++t) {
        const VecF wv = VecF::broadcast(w[(oc0 + t) * rows + r]);
        acc0[t] = VecF::add(acc0[t], VecF::mul(wv, c0));
        acc1[t] = VecF::add(acc1[t], VecF::mul(wv, c1));
      }
    }
    for (int t = 0; t < NOC; ++t) {
      float* o_row = out + (oc0 + t) * cols + p;
      acc0[t].store(o_row);
      acc1[t].store(o_row + W);
    }
  }
  for (; p + W <= px_end; p += W) {
    VecF acc[NOC];
    for (int t = 0; t < NOC; ++t) acc[t] = VecF::broadcast(bias[oc0 + t]);
    for (Index r = 0; r < rows; ++r) {
      const VecF c0 = VecF::load(col + r * cols + p);
      for (int t = 0; t < NOC; ++t) {
        const VecF wv = VecF::broadcast(w[(oc0 + t) * rows + r]);
        acc[t] = VecF::add(acc[t], VecF::mul(wv, c0));
      }
    }
    for (int t = 0; t < NOC; ++t) acc[t].store(out + (oc0 + t) * cols + p);
  }
  // Scalar pixel tail (block size % W), same ascending-r chain.
  for (; p < px_end; ++p) {
    for (int t = 0; t < NOC; ++t) {
      const float* w_oc = w + (oc0 + t) * rows;
      float a = bias[oc0 + t];
      for (Index r = 0; r < rows; ++r) a += w_oc[r] * col[r * cols + p];
      out[(oc0 + t) * cols + p] = a;
    }
  }
}

inline void conv_gemm_block(const float* w, const float* bias,
                            const float* col, float* out, Index oc_begin,
                            Index oc_end, Index rows, Index cols,
                            Index px_begin, Index px_end) {
  Index oc = oc_begin;
  for (; oc + 4 <= oc_end; oc += 4) {
    conv_tile<4>(w, bias, col, out, oc, rows, cols, px_begin, px_end);
  }
  switch (oc_end - oc) {
    case 3:
      conv_tile<3>(w, bias, col, out, oc, rows, cols, px_begin, px_end);
      break;
    case 2:
      conv_tile<2>(w, bias, col, out, oc, rows, cols, px_begin, px_end);
      break;
    case 1:
      conv_tile<1>(w, bias, col, out, oc, rows, cols, px_begin, px_end);
      break;
    default: break;
  }
}

// --- snn.step: LIF update + compressed spike emit ---------------------------
// Shared epilogue for one vector of membrane values: cache pre-reset
// membrane, threshold, emit fired lanes in ascending neuron order, reset.
inline void lif_finish_vec(float* v, Index o, VecF vo, const VecF& vtheta,
                           bool reset_to_zero, float* membrane_pre,
                           std::vector<Index>& spikes_out) {
  if (membrane_pre != nullptr) vo.store(membrane_pre + o);
  const VecM fired = VecF::cmp_ge(vo, vtheta);
  const int mask = fired.movemask();
  if (mask != 0) {
    // Compressed emit: ascending set bits = ascending neuron ids, the
    // order the scalar loop appends in.
    for (int m = mask; m != 0; m &= m - 1) {
      spikes_out.push_back(
          o + static_cast<Index>(__builtin_ctz(static_cast<unsigned>(m))));
    }
    const VecF reset = reset_to_zero ? VecF::zero() : VecF::sub(vo, vtheta);
    vo = VecF::blend(fired, reset, vo);
  }
  vo.store(v + o);
}

inline void lif_step_block(float* v, const float* b, const float* w,
                           const float* w_t, Index in_dim, Index out_dim,
                           const Index* spikes, Index spike_count,
                           Index n_begin, Index n_end, float beta, float theta,
                           bool reset_to_zero, float* membrane_pre,
                           std::vector<Index>& spikes_out) {
  constexpr Index W = VecF::kWidth;
  const VecF vbeta = VecF::broadcast(beta);
  const VecF vtheta = VecF::broadcast(theta);
  const Index vec_end = n_begin + ((n_end - n_begin) / W) * W;
  if (w_t != nullptr) {
    // Transposed path, three phases over the vector region. Per neuron the
    // operation sequence is exactly the scalar reference's — leak+bias,
    // then spikes in ascending order, then threshold — only the neuron/spike
    // loop nesting is interchanged, which no per-neuron chain can observe.
    //
    // Phase 1: v = beta*v + b, in place.
    for (Index o = n_begin; o < vec_end; o += W) {
      VecF::add(VecF::mul(vbeta, VecF::load(v + o)), VecF::load(b + o))
          .store(v + o);
    }
    // Phase 2: one contiguous w_t row per spike, streamed across the chunk.
    // Four spikes per pass quarters the v load/store traffic; the adds per
    // neuron stay in ascending spike order.
    Index s = 0;
    for (; s + 4 <= spike_count; s += 4) {
      const float* r0 = w_t + spikes[s + 0] * out_dim;
      const float* r1 = w_t + spikes[s + 1] * out_dim;
      const float* r2 = w_t + spikes[s + 2] * out_dim;
      const float* r3 = w_t + spikes[s + 3] * out_dim;
      for (Index o = n_begin; o < vec_end; o += W) {
        VecF vo = VecF::load(v + o);
        vo = VecF::add(vo, VecF::load(r0 + o));
        vo = VecF::add(vo, VecF::load(r1 + o));
        vo = VecF::add(vo, VecF::load(r2 + o));
        vo = VecF::add(vo, VecF::load(r3 + o));
        vo.store(v + o);
      }
    }
    for (; s < spike_count; ++s) {
      const float* r = w_t + spikes[s] * out_dim;
      for (Index o = n_begin; o < vec_end; o += W) {
        VecF::add(VecF::load(v + o), VecF::load(r + o)).store(v + o);
      }
    }
    // Phase 3: threshold / emit / reset, ascending o.
    for (Index o = n_begin; o < vec_end; o += W) {
      lif_finish_vec(v, o, VecF::load(v + o), vtheta, reset_to_zero,
                     membrane_pre, spikes_out);
    }
  } else {
    const VecI row_stride = VecI::lane_stride(in_dim);
    for (Index o = n_begin; o < vec_end; o += W) {
      // v' = beta*v + b, then one strided gather per input spike pulls the
      // synapse column w[(o..o+W-1)*in_dim + i] for all lanes at once.
      VecF vo =
          VecF::add(VecF::mul(vbeta, VecF::load(v + o)), VecF::load(b + o));
      const float* w_base = w + o * in_dim;
      for (Index s = 0; s < spike_count; ++s) {
        vo = VecF::add(vo, VecF::gather(w_base + spikes[s], row_stride));
      }
      lif_finish_vec(v, o, vo, vtheta, reset_to_zero, membrane_pre,
                     spikes_out);
    }
  }
  if (vec_end < n_end) {
    // Scalar neuron tail — full per-neuron sequence, appended after the
    // vector region so spike ids stay ascending.
    lif_step_block_scalar(v, b, w, in_dim, spikes, spike_count, vec_end,
                          n_end, beta, theta, reset_to_zero, membrane_pre,
                          spikes_out);
  }
}

// --- gnn.message_pass: neighbor accumulate ----------------------------------
// One body, two weight-column loaders: `self_col(f, o)` / `nbr_col(f, o)`
// return the vector of weights feeding outputs o..o+W-1 from input feature f
// (f in [0, in_dim+3) for the neighbor matrix — the last three are the
// spatiotemporal offset columns). The transposed loader is a contiguous
// load, the fallback a strided gather; the arithmetic around them is
// identical.
template <typename SelfCol, typename NbrCol>
inline void gnn_apply_node_body(SelfCol self_col, NbrCol nbr_col,
                                const float* bias, Index in_dim,
                                Index out_dim, const float* h_self,
                                const GnnNeighbor* neighbors,
                                Index neighbor_count, float* out,
                                Index vec_end) {
  constexpr Index W = VecF::kWidth;
  const VecF vzero = VecF::zero();
  for (Index o = 0; o < vec_end; o += W) {
    // acc = bias + W_self · h_self for W outputs: per feature, one weight
    // column across output rows times the broadcast activation.
    VecF acc = VecF::load(bias + o);
    for (Index f = 0; f < in_dim; ++f) {
      acc = VecF::add(acc,
                      VecF::mul(self_col(f, o), VecF::broadcast(h_self[f])));
    }
    const auto contrib_of = [&](const GnnNeighbor& nb) {
      VecF contrib = vzero;
      for (Index f = 0; f < in_dim; ++f) {
        contrib = VecF::add(
            contrib, VecF::mul(nbr_col(f, o), VecF::broadcast(nb.features[f])));
      }
      // One expression in the scalar reference — keep its tree:
      // contrib += (wx*dx + wy*dy) + wz*dz.
      const VecF off = VecF::add(
          VecF::add(VecF::mul(nbr_col(in_dim, o), VecF::broadcast(nb.dx)),
                    VecF::mul(nbr_col(in_dim + 1, o), VecF::broadcast(nb.dy))),
          VecF::mul(nbr_col(in_dim + 2, o), VecF::broadcast(nb.dz)));
      return VecF::add(contrib, off);
    };
    // The first neighbor seeds msg; later ones replace it only when
    // strictly greater (compare/blend), so ties keep the first — exactly the
    // scalar `!has_msg || contrib > msg` rule.
    VecF msg = vzero;
    if (neighbor_count > 0) msg = contrib_of(neighbors[0]);
    for (Index j = 1; j < neighbor_count; ++j) {
      const VecF contrib = contrib_of(neighbors[j]);
      msg = VecF::blend(VecF::cmp_gt(contrib, msg), contrib, msg);
    }
    // acc + (has_msg ? msg : 0.0f): msg is already 0 when there are no
    // neighbors, so the unconditional add reproduces the +0.0f case.
    const VecF pre = VecF::add(acc, msg);
    const VecF relu = VecF::blend(VecF::cmp_gt(pre, vzero), pre, vzero);
    relu.store(out + o);
  }
}

inline void gnn_apply_node(const float* w_self, const float* w_self_t,
                           const float* w_nbr, const float* w_nbr_t,
                           const float* bias, Index in_dim, Index out_dim,
                           const float* h_self, const GnnNeighbor* neighbors,
                           Index neighbor_count, float* out) {
  constexpr Index W = VecF::kWidth;
  const Index vec_end = (out_dim / W) * W;
  if (w_self_t != nullptr && w_nbr_t != nullptr) {
    gnn_apply_node_body(
        [w_self_t, out_dim](Index f, Index o) {
          return VecF::load(w_self_t + f * out_dim + o);
        },
        [w_nbr_t, out_dim](Index f, Index o) {
          return VecF::load(w_nbr_t + f * out_dim + o);
        },
        bias, in_dim, out_dim, h_self, neighbors, neighbor_count, out,
        vec_end);
  } else {
    const VecI self_stride = VecI::lane_stride(in_dim);
    const VecI nbr_stride = VecI::lane_stride(in_dim + 3);
    gnn_apply_node_body(
        [w_self, in_dim, &self_stride](Index f, Index o) {
          return VecF::gather(w_self + o * in_dim + f, self_stride);
        },
        [w_nbr, in_dim, &nbr_stride](Index f, Index o) {
          return VecF::gather(w_nbr + o * (in_dim + 3) + f, nbr_stride);
        },
        bias, in_dim, out_dim, h_self, neighbors, neighbor_count, out,
        vec_end);
  }
  if (vec_end < out_dim) {
    gnn_apply_node_scalar(w_self + vec_end * in_dim,
                          w_nbr + vec_end * (in_dim + 3), bias + vec_end,
                          in_dim, out_dim - vec_end, h_self, neighbors,
                          neighbor_count, out + vec_end);
  }
}

}  // namespace vecimpl
}  // namespace evd::simd::detail
