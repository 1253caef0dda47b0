#include "nn/pooling.hpp"

#include <limits>
#include <stdexcept>

#include "common/parallel.hpp"
#include "nn/counters.hpp"

namespace evd::nn {
namespace {

void require_chw(const Tensor& t, const char* where) {
  if (t.rank() != 3) {
    throw std::invalid_argument(std::string(where) + ": expected [C,H,W]");
  }
}

Index pooled_size(Index in, Index window, Index stride) {
  return in < window ? 0 : (in - window) / stride + 1;
}

/// Output extent of a window/stride pool over a [C,H,W] shape.
struct Pooled {
  Index c, oh, ow;
};

Pooled pooled_extent(const std::vector<Index>& shape, Index window,
                     Index stride, const char* where) {
  if (shape.size() != 3) {
    throw std::invalid_argument(std::string(where) + ": expected [C,H,W]");
  }
  const Pooled p{shape[0], pooled_size(shape[1], window, stride),
                 pooled_size(shape[2], window, stride)};
  if (p.oh <= 0 || p.ow <= 0) {
    throw std::invalid_argument(std::string(where) +
                                ": window larger than input");
  }
  return p;
}

}  // namespace

std::vector<Index> MaxPool2d::output_shape(
    const std::vector<Index>& input_shape) const {
  const Pooled p = pooled_extent(input_shape, window_, stride_, "MaxPool2d");
  return {p.c, p.oh, p.ow};
}

template <bool kTrain, Index kWindow>
void MaxPool2d::pool(const Tensor& input, Tensor& output,
                     Index* argmax) const {
  const Index c = output.dim(0), oh = output.dim(1), ow = output.dim(2);
  const Index ih = input.dim(1), iw = input.dim(2);
  const Index window = kWindow > 0 ? kWindow : window_;
  const Index stride = stride_;
  const float* in = input.data();
  float* out = output.data();
  // Taps are visited in (wy, wx) order and replace the running best only
  // when strictly greater, through a select rather than a branch: NaN taps
  // never win (an all-NaN window stays -inf) and the first of equal taps,
  // ±0 included, is kept. Training records the winner's flat input index
  // in the same select.
  par::parallel_for(0, c, 1, [&](Index ch_begin, Index ch_end) {
    for (Index ch = ch_begin; ch < ch_end; ++ch) {
      for (Index oy = 0; oy < oh; ++oy) {
        const float* band = in + (ch * ih + oy * stride) * iw;
        const Index out_row = (ch * oh + oy) * ow;
        for (Index ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          Index best_idx = 0;
          for (Index wy = 0; wy < window; ++wy) {
            const float* row = band + wy * iw + ox * stride;
            for (Index wx = 0; wx < window; ++wx) {
              const float v = row[wx];
              if constexpr (kTrain) {
                best_idx = v > best ? static_cast<Index>(row - in) + wx
                                    : best_idx;
              }
              best = v > best ? v : best;
            }
          }
          out[out_row + ox] = best;
          if constexpr (kTrain) argmax[out_row + ox] = best_idx;
        }
      }
    }
  });
  count_compare(c * oh * ow * window * window);
  count_act_read(input.numel() * 4);
  count_act_write(output.numel() * 4);
}

void MaxPool2d::forward_into(const Tensor& input, Tensor& output) const {
  const Pooled p = pooled_extent(input.shape(), window_, stride_, "MaxPool2d");
  output.ensure_shape({p.c, p.oh, p.ow});
  if (window_ == 2) {
    pool<false, 2>(input, output, nullptr);
  } else {
    pool<false, 0>(input, output, nullptr);
  }
}

Tensor MaxPool2d::forward(const Tensor& input, bool train) {
  if (!train) {
    Tensor output;
    forward_into(input, output);
    return output;
  }
  // Only backward() reads the argmax: inference writes no layer state, so
  // sessions can share the layer and backward() keeps the training routing.
  Tensor output(output_shape(input.shape()));
  argmax_.assign(static_cast<size_t>(output.numel()), 0);
  cached_input_ = input;
  pool<true, 0>(input, output, argmax_.data());
  return output;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("MaxPool2d::backward: no cached forward");
  }
  Tensor grad_input(cached_input_.shape());
  for (Index i = 0; i < grad_output.numel(); ++i) {
    grad_input[argmax_[static_cast<size_t>(i)]] += grad_output[i];
  }
  return grad_input;
}

std::vector<Index> AvgPool2d::output_shape(
    const std::vector<Index>& input_shape) const {
  const Pooled p = pooled_extent(input_shape, window_, stride_, "AvgPool2d");
  return {p.c, p.oh, p.ow};
}

void AvgPool2d::forward_into(const Tensor& input, Tensor& output) const {
  const Pooled p = pooled_extent(input.shape(), window_, stride_, "AvgPool2d");
  output.ensure_shape({p.c, p.oh, p.ow});
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  par::parallel_for(0, p.c, 1, [&](Index ch_begin, Index ch_end) {
    for (Index ch = ch_begin; ch < ch_end; ++ch) {
      for (Index oy = 0; oy < p.oh; ++oy) {
        for (Index ox = 0; ox < p.ow; ++ox) {
          float acc = 0.0f;
          for (Index wy = 0; wy < window_; ++wy) {
            for (Index wx = 0; wx < window_; ++wx) {
              acc += input.at3(ch, oy * stride_ + wy, ox * stride_ + wx);
            }
          }
          output.at3(ch, oy, ox) = acc * inv;
        }
      }
    }
  });
  count_add(p.c * p.oh * p.ow * window_ * window_);
  count_mult(p.c * p.oh * p.ow);
  count_act_read(input.numel() * 4);
  count_act_write(output.numel() * 4);
}

Tensor AvgPool2d::forward(const Tensor& input, bool train) {
  Tensor output;
  forward_into(input, output);
  if (train) in_shape_ = input.shape();
  return output;
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  if (in_shape_.empty()) {
    throw std::logic_error("AvgPool2d::backward: no cached forward");
  }
  Tensor grad_input(in_shape_);
  const Index c = in_shape_[0];
  const Index oh = grad_output.dim(1), ow = grad_output.dim(2);
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  par::parallel_for(0, c, 1, [&](Index ch_begin, Index ch_end) {
    for (Index ch = ch_begin; ch < ch_end; ++ch) {
      for (Index oy = 0; oy < oh; ++oy) {
        for (Index ox = 0; ox < ow; ++ox) {
          const float g = grad_output.at3(ch, oy, ox) * inv;
          for (Index wy = 0; wy < window_; ++wy) {
            for (Index wx = 0; wx < window_; ++wx) {
              grad_input.at3(ch, oy * stride_ + wy, ox * stride_ + wx) += g;
            }
          }
        }
      }
    }
  });
  return grad_input;
}

std::vector<Index> GlobalAvgPool::output_shape(
    const std::vector<Index>& input_shape) const {
  if (input_shape.size() != 3) {
    throw std::invalid_argument("GlobalAvgPool: expected [C,H,W]");
  }
  return {input_shape[0]};
}

void GlobalAvgPool::forward_into(const Tensor& input, Tensor& output) const {
  require_chw(input, "GlobalAvgPool");
  const Index c = input.dim(0);
  const Index area = input.dim(1) * input.dim(2);
  output.ensure_shape({c});
  const float* in = input.data();
  float* out = output.data();
  par::parallel_for(0, c, 1, [&](Index ch_begin, Index ch_end) {
    for (Index ch = ch_begin; ch < ch_end; ++ch) {
      const float* plane = in + ch * area;
      float acc = 0.0f;
      for (Index i = 0; i < area; ++i) acc += plane[i];
      out[ch] = acc / static_cast<float>(area);
    }
  });
  count_add(input.numel());
  count_act_read(input.numel() * 4);
  count_act_write(c * 4);
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool train) {
  Tensor output;
  forward_into(input, output);
  if (train) in_shape_ = input.shape();
  return output;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  if (in_shape_.empty()) {
    throw std::logic_error("GlobalAvgPool::backward: no cached forward");
  }
  Tensor grad_input(in_shape_);
  const float inv = 1.0f / static_cast<float>(in_shape_[1] * in_shape_[2]);
  for (Index ch = 0; ch < in_shape_[0]; ++ch) {
    const float g = grad_output[ch] * inv;
    for (Index y = 0; y < in_shape_[1]; ++y) {
      for (Index x = 0; x < in_shape_[2]; ++x) grad_input.at3(ch, y, x) = g;
    }
  }
  return grad_input;
}

}  // namespace evd::nn
