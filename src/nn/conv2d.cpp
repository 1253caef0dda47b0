#include "nn/conv2d.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "nn/counters.hpp"
#include "nn/init.hpp"
#include "simd/kernels.hpp"

namespace evd::nn {
namespace {

thread_local ConvAlgo t_conv_algo = ConvAlgo::Auto;
thread_local ConvScratch t_conv_scratch;

/// Output positions [lo, hi) along one axis whose tap at kernel offset `k`
/// reads inside the input: 0 <= o * stride - padding + k < in. Outside
/// that run the tap reads zero padding.
std::pair<Index, Index> valid_outputs(Index in, Index out, Index k,
                                      Index stride, Index padding) {
  const Index first = padding - k;    // smallest valid o * stride
  const Index last = in - 1 + first;  // largest valid o * stride
  const Index hi = last < 0 ? 0 : std::min(out, last / stride + 1);
  const Index lo = first <= 0 ? 0 : (first + stride - 1) / stride;
  return {std::min(lo, hi), hi};
}

}  // namespace

ConvAlgo thread_conv_algo() noexcept { return t_conv_algo; }

ConvScratch& thread_conv_scratch() noexcept { return t_conv_scratch; }

ScopedConvAlgo::ScopedConvAlgo(ConvAlgo algo) noexcept
    : previous_(t_conv_algo) {
  t_conv_algo = algo;
}

ScopedConvAlgo::~ScopedConvAlgo() { t_conv_algo = previous_; }

Conv2d::Conv2d(Conv2dConfig config, Rng& rng)
    : config_(config),
      weight_("weight",
              he_normal({config.out_channels, config.in_channels,
                         config.kernel, config.kernel},
                        config.in_channels * config.kernel * config.kernel,
                        rng)),
      bias_("bias", Tensor({config.out_channels})) {
  if (config.kernel <= 0 || config.stride <= 0 || config.padding < 0 ||
      config.in_channels <= 0 || config.out_channels <= 0) {
    throw std::invalid_argument("Conv2d: invalid configuration");
  }
}

bool Conv2d::use_gemm(Index oh, Index ow) const noexcept {
  // Amortise the im2col materialisation: worthwhile once the patch matrix
  // carries a few thousand multiplies. Shape-only, so the choice (and hence
  // the output bits) never depends on the thread count.
  const Index patch = config_.in_channels * config_.kernel * config_.kernel;
  return patch * oh * ow >= 4096;
}

std::vector<Index> Conv2d::output_shape(
    const std::vector<Index>& input_shape) const {
  const auto [oh, ow] = out_extent(input_shape);
  return {config_.out_channels, oh, ow};
}

std::pair<Index, Index> Conv2d::out_extent(
    const std::vector<Index>& input_shape) const {
  if (input_shape.size() != 3 || input_shape[0] != config_.in_channels) {
    throw std::invalid_argument("Conv2d::forward: expected [C,H,W] input with C=" +
                                std::to_string(config_.in_channels));
  }
  const Index oh = out_size(input_shape[1]);
  const Index ow = out_size(input_shape[2]);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("Conv2d::forward: input smaller than kernel");
  }
  return {oh, ow};
}

void Conv2d::forward_into(const Tensor& input, Tensor& output) const {
  const auto [oh, ow] = out_extent(input.shape());

  // Kernel selection: an explicit config wins; a config of Auto defers to
  // the thread-local routing override (evd::route installs one around a
  // routed session's forward call); Auto with no override falls back to the
  // shape heuristic. All four kernels produce bit-identical outputs.
  ConvAlgo algo = config_.algo;
  if (algo == ConvAlgo::Auto) {
    algo = thread_conv_algo();
    // The sparse route targets event-frame sparsity; layers fed by dense
    // deeper activations fall back to the shape heuristic (see
    // Conv2dConfig::frame_input).
    if (algo == ConvAlgo::Sparse && !config_.frame_input) {
      algo = ConvAlgo::Auto;
    }
  }
  if (algo == ConvAlgo::Auto) {
    algo = use_gemm(oh, ow) ? ConvAlgo::Gemm : ConvAlgo::Direct;
  }
  output.ensure_shape({config_.out_channels, oh, ow});
  if (algo == ConvAlgo::Gemm) {
    forward_gemm(input, output);
  } else if (algo == ConvAlgo::Sparse) {
    forward_sparse(input, output);
  } else {
    forward_direct(input, output);
  }
  if (active_counter() != nullptr) count_forward(input, oh, ow);
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  Tensor output;
  forward_into(input, output);
  if (train) cached_input_ = input;
  return output;
}

void Conv2d::forward_direct(const Tensor& input, Tensor& output) const {
  const Index oh = output.dim(1);
  const Index ow = output.dim(2);
  const Index ih = input.dim(1);
  const Index iw = input.dim(2);
  const Index k = config_.kernel;
  const Index ic_count = config_.in_channels;
  const Index stride = config_.stride;
  const Index padding = config_.padding;

  const float* in = input.data();
  const float* wts = weight_.value.data();
  float* out = output.data();

  par::parallel_for(0, config_.out_channels, 1, [&](Index oc_begin,
                                                    Index oc_end) {
    for (Index oc = oc_begin; oc < oc_end; ++oc) {
      const float* w_oc = wts + oc * ic_count * k * k;
      const float bias = bias_.value[oc];
      float* out_oc = out + oc * oh * ow;
      for (Index oy = 0; oy < oh; ++oy) {
        const Index base_y = oy * stride - padding;
        // Valid kernel-row range for this output row: interior rows skip
        // all per-pixel bounds checks.
        const Index ky0 = base_y < 0 ? -base_y : 0;
        const Index ky1 = std::min(k, ih - base_y);
        for (Index ox = 0; ox < ow; ++ox) {
          const Index base_x = ox * stride - padding;
          const Index kx0 = base_x < 0 ? -base_x : 0;
          const Index kx1 = std::min(k, iw - base_x);
          float acc = bias;
          for (Index ic = 0; ic < ic_count; ++ic) {
            const float* w_ic = w_oc + ic * k * k;
            const float* in_ic = in + ic * ih * iw;
            for (Index ky = ky0; ky < ky1; ++ky) {
              const float* w_row = w_ic + ky * k;
              const float* in_row = in_ic + (base_y + ky) * iw + base_x;
              for (Index kx = kx0; kx < kx1; ++kx) {
                acc += w_row[kx] * in_row[kx];
              }
            }
          }
          out_oc[oy * ow + ox] = acc;
        }
      }
    }
  });
}

void Conv2d::forward_sparse(const Tensor& input, Tensor& output) const {
  // The direct loop nest with a zero-skip gate on the activation operand —
  // the software mirror of the zero-skip accelerator the hw models price.
  // Bitwise contract: skipping `acc += w * 0.0f` leaves acc unchanged for
  // every finite acc except -0.0 (where the dense path may flush to +0.0);
  // acc starts at the bias, and -0.0 parameters do not arise from He-normal
  // init or zero-init biases. Tap order over the *surviving* taps is the
  // direct path's (ic, ky, kx) ascending order, so the partial sums visit
  // the same values in the same order. The route.cnn_sparse_vs_dense oracle
  // holds the equality at ULP 0 on generated event frames.
  const Index oh = output.dim(1);
  const Index ow = output.dim(2);
  const Index ih = input.dim(1);
  const Index iw = input.dim(2);
  const Index k = config_.kernel;
  const Index ic_count = config_.in_channels;
  const Index stride = config_.stride;
  const Index padding = config_.padding;

  const float* in = input.data();
  const float* wts = weight_.value.data();
  float* out = output.data();

  // Live-pixel integral image over all input channels: 2-D prefix sums of
  // the any-channel-nonzero mask let every output pixel test its whole
  // receptive field in O(1). On an event frame most receptive fields are
  // entirely dead, and a dead window short-circuits straight to the bias —
  // bitwise what the tap loop computes when every tap is skipped. Built
  // once (input-only) into the calling thread's scratch, shared read-only
  // by the channel workers.
  std::vector<std::int32_t>& live_buf = thread_conv_scratch().live;
  const Index row_len = iw + 1;
  if (live_buf.size() < static_cast<size_t>((ih + 1) * row_len)) {
    live_buf.resize(static_cast<size_t>((ih + 1) * row_len));
  }
  std::int32_t* live = live_buf.data();
  std::fill(live, live + row_len, 0);
  for (Index y = 0; y < ih; ++y) {
    std::int32_t row = 0;
    live[(y + 1) * row_len] = 0;
    for (Index x = 0; x < iw; ++x) {
      bool any = false;
      for (Index ic = 0; ic < ic_count && !any; ++ic) {
        any = in[(ic * ih + y) * iw + x] != 0.0f;
      }
      row += any ? 1 : 0;
      live[(y + 1) * row_len + (x + 1)] = live[y * row_len + (x + 1)] + row;
    }
  }
  // Live pixels in the half-open, pre-clamped window [y0,y1) x [x0,x1).
  const auto window_live = [live, row_len](Index y0, Index y1, Index x0,
                                            Index x1) {
    return live[y1 * row_len + x1] - live[y0 * row_len + x1] -
           live[y1 * row_len + x0] + live[y0 * row_len + x0];
  };

  par::parallel_for(0, config_.out_channels, 1, [&](Index oc_begin,
                                                    Index oc_end) {
    for (Index oc = oc_begin; oc < oc_end; ++oc) {
      const float* w_oc = wts + oc * ic_count * k * k;
      const float bias = bias_.value[oc];
      float* out_oc = out + oc * oh * ow;
      for (Index oy = 0; oy < oh; ++oy) {
        const Index base_y = oy * stride - padding;
        const Index ky0 = base_y < 0 ? -base_y : 0;
        const Index ky1 = std::min(k, ih - base_y);
        for (Index ox = 0; ox < ow; ++ox) {
          const Index base_x = ox * stride - padding;
          const Index kx0 = base_x < 0 ? -base_x : 0;
          const Index kx1 = std::min(k, iw - base_x);
          if (window_live(base_y + ky0, base_y + ky1, base_x + kx0,
                          base_x + kx1) == 0) {
            out_oc[oy * ow + ox] = bias;
            continue;
          }
          float acc = bias;
          for (Index ic = 0; ic < ic_count; ++ic) {
            const float* w_ic = w_oc + ic * k * k;
            const float* in_ic = in + ic * ih * iw;
            for (Index ky = ky0; ky < ky1; ++ky) {
              const float* w_row = w_ic + ky * k;
              const float* in_row = in_ic + (base_y + ky) * iw + base_x;
              for (Index kx = kx0; kx < kx1; ++kx) {
                const float v = in_row[kx];
                if (v != 0.0f) acc += w_row[kx] * v;
              }
            }
          }
          out_oc[oy * ow + ox] = acc;
        }
      }
    }
  });
}

void Conv2d::forward_gemm(const Tensor& input, Tensor& output) const {
  const Index oh = output.dim(1);
  const Index ow = output.dim(2);
  const Index ih = input.dim(1);
  const Index iw = input.dim(2);
  const Index k = config_.kernel;
  const Index stride = config_.stride;
  const Index padding = config_.padding;
  const Index rows = config_.in_channels * k * k;  // patch dimension R
  const Index cols = oh * ow;                      // pixel dimension P

  // im2col: col[r][p] is input tap (ic, ky, kx) = unflatten(r) at output
  // pixel p, zero for padding taps. Row order matches the direct loop's
  // (ic, ky, kx) accumulation order exactly. The matrix is the calling
  // thread's scratch, bound here — before the parallel region — so the
  // pool workers fill disjoint rows of this buffer. Every element of the
  // used [rows, cols] block is written: each patch row is, per output row,
  // a run of zeros, a run of input taps, and a run of zeros, so no tap
  // tests its bounds.
  std::vector<float>& col_buf = thread_conv_scratch().patch;
  if (col_buf.size() < static_cast<size_t>(rows * cols)) {
    col_buf.resize(static_cast<size_t>(rows * cols));
  }
  float* col = col_buf.data();
  const float* in = input.data();
  par::parallel_for(0, rows, 1, [&](Index r_begin, Index r_end) {
    for (Index r = r_begin; r < r_end; ++r) {
      const Index ic = r / (k * k);
      const Index ky = (r / k) % k;
      const Index kx = r % k;
      const float* in_ic = in + ic * ih * iw;
      float* dst = col + r * cols;
      const auto [y_lo, y_hi] = valid_outputs(ih, oh, ky, stride, padding);
      const auto [x_lo, x_hi] = valid_outputs(iw, ow, kx, stride, padding);
      std::fill(dst, dst + y_lo * ow, 0.0f);
      for (Index oy = y_lo; oy < y_hi; ++oy) {
        float* d = dst + oy * ow;
        std::fill(d, d + x_lo, 0.0f);
        if (x_lo < x_hi) {
          const float* src =
              in_ic + (oy * stride - padding + ky) * iw +
              (x_lo * stride - padding + kx);
          if (stride == 1) {
            std::copy(src, src + (x_hi - x_lo), d + x_lo);
          } else {
            for (Index ox = x_lo; ox < x_hi; ++ox, src += stride) d[ox] = *src;
          }
        }
        std::fill(d + x_hi, d + ow, 0.0f);
      }
      std::fill(dst + y_hi * ow, dst + cols, 0.0f);
    }
  });

  // Blocked GEMM microkernel: out[oc] = bias[oc] + W[oc] . col. The pixel
  // dimension is blocked OUTSIDE the output-channel loop so one col block
  // (rows * px_block floats, sized to roughly half of a typical L2) stays
  // cache-resident while every output channel crosses it — without this the
  // full col matrix is re-streamed from L3 once per channel tile. Within a
  // block, output channels run in parallel. The kernel dispatches on the
  // SIMD tier (EVD_SIMD); every tier accumulates each output pixel over r in
  // the same ascending order — the direct loop's (ic, ky, kx) order — so
  // neither the blocking nor the tier ever affects bits. Grain 4 hands each
  // chunk a full register tile of output channels; block and chunk
  // boundaries stay a pure function of the shape, preserving the
  // thread-count determinism contract.
  const float* wts = weight_.value.data();
  float* out = output.data();
  constexpr Index kColBlockBytes = 1 << 20;
  constexpr Index kPxAlign = 16;
  Index px_block = kColBlockBytes / (static_cast<Index>(sizeof(float)) * rows);
  px_block = std::max<Index>(kPxAlign, px_block - px_block % kPxAlign);
  for (Index px = 0; px < cols; px += px_block) {
    const Index px_end = std::min(cols, px + px_block);
    par::parallel_for(0, config_.out_channels, 4, [&](Index oc_begin,
                                                      Index oc_end) {
      simd::conv_gemm_block(wts, bias_.value.data(), col, out, oc_begin,
                            oc_end, rows, cols, px, px_end);
    });
  }
}

void Conv2d::count_forward(const Tensor& input, Index oh, Index ow) const {
  // Count MACs over valid (non-padding) taps, and how many of those had a
  // zero activation operand (skippable on sparse hardware). The tap pattern
  // is identical for every output channel, so count one channel's taps in
  // parallel (per-chunk counters, merged in chunk order) and scale.
  const Index ih = input.dim(1);
  const Index iw = input.dim(2);
  const Index k = config_.kernel;
  const Index stride = config_.stride;
  const Index padding = config_.padding;
  const float* in = input.data();

  const Index nchunks = par::chunk_count(0, oh, 1);
  ChunkCounters chunks(nchunks);
  par::parallel_for_chunks(0, oh, 1, [&](Index c, Index y_begin,
                                         Index y_end) {
    OpCounter& local = chunks.slot(c);
    std::int64_t macs = 0;
    std::int64_t skippable = 0;
    for (Index oy = y_begin; oy < y_end; ++oy) {
      const Index base_y = oy * stride - padding;
      const Index ky0 = base_y < 0 ? -base_y : 0;
      const Index ky1 = std::min(k, ih - base_y);
      for (Index ox = 0; ox < ow; ++ox) {
        const Index base_x = ox * stride - padding;
        const Index kx0 = base_x < 0 ? -base_x : 0;
        const Index kx1 = std::min(k, iw - base_x);
        for (Index ic = 0; ic < config_.in_channels; ++ic) {
          const float* in_ic = in + ic * ih * iw;
          for (Index ky = ky0; ky < ky1; ++ky) {
            const float* in_row = in_ic + (base_y + ky) * iw + base_x;
            macs += kx1 - kx0;
            for (Index kx = kx0; kx < kx1; ++kx) {
              if (in_row[kx] == 0.0f) ++skippable;
            }
          }
        }
      }
    }
    local.mults += macs;
    local.adds += macs;
    local.zero_skippable_mults += skippable;
  });
  const OpCounter taps = chunks.total();
  count_mac(taps.mults * config_.out_channels);
  count_zero_skippable(taps.zero_skippable_mults * config_.out_channels);
  count_param_read(
      static_cast<std::int64_t>(weight_.value.numel() + bias_.value.numel()) *
      4);
  count_act_read(input.numel() * 4);
  count_act_write(config_.out_channels * oh * ow * 4);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Conv2d::backward: no cached forward");
  }
  const Index ih = cached_input_.dim(1);
  const Index iw = cached_input_.dim(2);
  const Index oh = out_size(ih);
  const Index ow = out_size(iw);
  if (grad_output.rank() != 3 || grad_output.dim(0) != config_.out_channels ||
      grad_output.dim(1) != oh || grad_output.dim(2) != ow) {
    throw std::invalid_argument("Conv2d::backward: grad shape mismatch");
  }

  const Index k = config_.kernel;
  const Index stride = config_.stride;
  const Index padding = config_.padding;
  const float* go_data = grad_output.data();

  // Bias gradients: partitioned by output channel.
  par::parallel_for(0, config_.out_channels, 1, [&](Index oc_begin,
                                                    Index oc_end) {
    for (Index oc = oc_begin; oc < oc_end; ++oc) {
      const float* go_oc = go_data + oc * oh * ow;
      for (Index p = 0; p < oh * ow; ++p) {
        if (go_oc[p] != 0.0f) bias_.grad[oc] += go_oc[p];
      }
    }
  });

  // Weight and input gradients: both are indexed by the input channel, so
  // partitioning by ic keeps every write thread-private. Per-element
  // accumulation order over (oc, oy, ox) matches the serial loop.
  Tensor grad_input(cached_input_.shape());
  const float* in = cached_input_.data();
  par::parallel_for(0, config_.in_channels, 1, [&](Index ic_begin,
                                                   Index ic_end) {
    for (Index ic = ic_begin; ic < ic_end; ++ic) {
      const float* in_ic = in + ic * ih * iw;
      float* gi_ic = grad_input.data() + ic * ih * iw;
      for (Index oc = 0; oc < config_.out_channels; ++oc) {
        const float* go_oc = go_data + oc * oh * ow;
        const Index w_base = (oc * config_.in_channels + ic) * k * k;
        const float* w_ic = weight_.value.data() + w_base;
        float* gw_ic = weight_.grad.data() + w_base;
        for (Index oy = 0; oy < oh; ++oy) {
          const Index base_y = oy * stride - padding;
          const Index ky0 = base_y < 0 ? -base_y : 0;
          const Index ky1 = std::min(k, ih - base_y);
          for (Index ox = 0; ox < ow; ++ox) {
            const float go = go_oc[oy * ow + ox];
            if (go == 0.0f) continue;
            const Index base_x = ox * stride - padding;
            const Index kx0 = base_x < 0 ? -base_x : 0;
            const Index kx1 = std::min(k, iw - base_x);
            for (Index ky = ky0; ky < ky1; ++ky) {
              const float* w_row = w_ic + ky * k;
              float* gw_row = gw_ic + ky * k;
              const float* in_row = in_ic + (base_y + ky) * iw + base_x;
              float* gi_row = gi_ic + (base_y + ky) * iw + base_x;
              for (Index kx = kx0; kx < kx1; ++kx) {
                gw_row[kx] += go * in_row[kx];
                gi_row[kx] += go * w_row[kx];
              }
            }
          }
        }
      }
    }
  });
  return grad_input;
}

std::vector<Param*> Conv2d::params() { return {&weight_, &bias_}; }

}  // namespace evd::nn
