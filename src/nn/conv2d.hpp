// 2-D convolution with manual backward pass.
//
// Input is a single feature volume [C, H, W] (no batch dimension — training
// in this library is per-sample with gradient accumulation). Zero padding,
// arbitrary stride. Two forward kernels produce identical results:
//
//   * Direct — the reference loop nest, with hoisted weight-row pointers and
//     per-row valid-tap ranges instead of per-pixel bounds checks.
//   * Gemm   — im2col into a [C*K*K, OH*OW] patch matrix, then a
//     cache-blocked GEMM over output channels. Accumulation order per output
//     element matches the direct loop (ic, ky, kx ascending), so the two
//     paths agree and both are bitwise reproducible for any EVD_THREADS.
//
// The im2col patch matrix lives in a per-thread buffer (ConvScratch) sized
// to the largest layer the thread has run, so a warm forward allocates
// nothing; pool workers fill disjoint rows of the calling thread's buffer.
//
// Both kernels parallelise over output channels via evd::par. Operation
// counting distinguishes total MACs from zero-skippable MACs (zero
// activations), feeding the hardware models of §III-B; the counting pass
// aggregates per-chunk counters and merges them deterministically.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace evd::nn {

/// Forward kernel selection. Auto picks Gemm once the patch matrix is big
/// enough to amortise im2col, Direct otherwise (a pure function of shapes,
/// never of thread count). Sparse runs the direct loop nest but skips taps
/// whose activation is exactly zero — bitwise-identical on event-frame
/// inputs (adding w*0.0f to a finite accumulator cannot change its bits
/// unless the accumulator is -0.0, which He-normal/zero-init parameters
/// never produce; the route.cnn_sparse_vs_dense oracle enforces this).
enum class ConvAlgo { Auto, Direct, Gemm, Sparse };

/// Thread-local ConvAlgo override consulted by Conv2d::forward when the
/// layer's own config says Auto. This is how a routed CNN session forces a
/// path through a *shared* model without mutating it: sessions share one
/// Sequential across worker threads, so the override must be per-thread and
/// scoped exactly around the session's forward call.
ConvAlgo thread_conv_algo() noexcept;

/// RAII scope installing a thread-local ConvAlgo override (Auto = none).
/// Restores the previous override on destruction; nests correctly.
class ScopedConvAlgo {
 public:
  explicit ScopedConvAlgo(ConvAlgo algo) noexcept;
  ~ScopedConvAlgo();
  ScopedConvAlgo(const ScopedConvAlgo&) = delete;
  ScopedConvAlgo& operator=(const ScopedConvAlgo&) = delete;

 private:
  ConvAlgo previous_;
};

/// Per-thread conv scratch: the Gemm kernel's im2col patch matrix and the
/// Sparse kernel's live-pixel integral image. Each grows to the largest
/// layer the thread has run and is never shrunk. A forward binds the
/// calling thread's buffers before its parallel regions, so pool workers
/// write the caller's buffer, never their own. Exposed so tests can poison
/// it and audits can warm it.
struct ConvScratch {
  std::vector<float> patch;
  std::vector<std::int32_t> live;
};
ConvScratch& thread_conv_scratch() noexcept;

struct Conv2dConfig {
  Index in_channels = 1;
  Index out_channels = 1;
  Index kernel = 3;
  Index stride = 1;
  Index padding = 1;
  ConvAlgo algo = ConvAlgo::Auto;
  /// This layer consumes the (sparse) event frame. Only such layers honor a
  /// thread-local Sparse override: deeper layers see dense post-ReLU
  /// activations, where the zero-skip gate pays a test per tap for nothing
  /// and would displace the SIMD GEMM kernel. An explicit config algo of
  /// Sparse is always honored regardless.
  bool frame_input = false;
};

class Conv2d : public Layer {
 public:
  Conv2d(Conv2dConfig config, Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  void forward_into(const Tensor& input, Tensor& output) const override;
  std::vector<Index> output_shape(
      const std::vector<Index>& input_shape) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Conv2d"; }

  const Conv2dConfig& config() const noexcept { return config_; }
  Param& weight() noexcept { return weight_; }
  Param& bias() noexcept { return bias_; }

  /// Output spatial size for a given input size.
  Index out_size(Index in_size) const noexcept {
    return (in_size + 2 * config_.padding - config_.kernel) / config_.stride +
           1;
  }

 private:
  /// Validated output (OH, OW) for an input of `input_shape`.
  std::pair<Index, Index> out_extent(
      const std::vector<Index>& input_shape) const;
  bool use_gemm(Index oh, Index ow) const noexcept;
  /// The kernels write every element of `output`, shaped [OC, OH, OW].
  void forward_direct(const Tensor& input, Tensor& output) const;
  void forward_sparse(const Tensor& input, Tensor& output) const;
  void forward_gemm(const Tensor& input, Tensor& output) const;
  void count_forward(const Tensor& input, Index oh, Index ow) const;

  Conv2dConfig config_;
  Param weight_;  ///< [OC, IC, K, K]
  Param bias_;    ///< [OC]
  Tensor cached_input_;
};

}  // namespace evd::nn
