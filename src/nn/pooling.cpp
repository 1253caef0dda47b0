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

}  // namespace

Tensor MaxPool2d::forward(const Tensor& input, bool train) {
  require_chw(input, "MaxPool2d");
  const Index c = input.dim(0), ih = input.dim(1), iw = input.dim(2);
  const Index oh = pooled_size(ih, window_, stride_);
  const Index ow = pooled_size(iw, window_, stride_);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("MaxPool2d: window larger than input");
  }
  Tensor output({c, oh, ow});
  // Only backward() reads the argmax: inference writes no layer state, so
  // sessions can share the layer and backward() keeps the training routing.
  if (train) {
    argmax_.assign(static_cast<size_t>(c * oh * ow), 0);
    cached_input_ = input;
  }

  par::parallel_for(0, c, 1, [&](Index ch_begin, Index ch_end) {
    for (Index ch = ch_begin; ch < ch_end; ++ch) {
      Index out_idx = ch * oh * ow;
      for (Index oy = 0; oy < oh; ++oy) {
        for (Index ox = 0; ox < ow; ++ox, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          Index best_idx = 0;
          for (Index wy = 0; wy < window_; ++wy) {
            for (Index wx = 0; wx < window_; ++wx) {
              const Index y = oy * stride_ + wy;
              const Index x = ox * stride_ + wx;
              const float v = input.at3(ch, y, x);
              if (v > best) {
                best = v;
                best_idx = (ch * ih + y) * iw + x;
              }
            }
          }
          output[out_idx] = best;
          if (train) argmax_[static_cast<size_t>(out_idx)] = best_idx;
        }
      }
    }
  });
  count_compare(c * oh * ow * window_ * window_);
  count_act_read(input.numel() * 4);
  count_act_write(output.numel() * 4);
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

Tensor AvgPool2d::forward(const Tensor& input, bool train) {
  require_chw(input, "AvgPool2d");
  const Index c = input.dim(0), ih = input.dim(1), iw = input.dim(2);
  const Index oh = pooled_size(ih, window_, stride_);
  const Index ow = pooled_size(iw, window_, stride_);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("AvgPool2d: window larger than input");
  }
  if (train) in_shape_ = input.shape();
  const float inv = 1.0f / static_cast<float>(window_ * window_);

  Tensor output({c, oh, ow});
  par::parallel_for(0, c, 1, [&](Index ch_begin, Index ch_end) {
    for (Index ch = ch_begin; ch < ch_end; ++ch) {
      for (Index oy = 0; oy < oh; ++oy) {
        for (Index ox = 0; ox < ow; ++ox) {
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
  count_add(c * oh * ow * window_ * window_);
  count_mult(c * oh * ow);
  count_act_read(input.numel() * 4);
  count_act_write(output.numel() * 4);
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

Tensor GlobalAvgPool::forward(const Tensor& input, bool train) {
  require_chw(input, "GlobalAvgPool");
  if (train) in_shape_ = input.shape();
  const Index c = input.dim(0);
  const Index area = input.dim(1) * input.dim(2);
  Tensor output({c});
  par::parallel_for(0, c, 1, [&](Index ch_begin, Index ch_end) {
    for (Index ch = ch_begin; ch < ch_end; ++ch) {
      float acc = 0.0f;
      for (Index y = 0; y < input.dim(1); ++y) {
        for (Index x = 0; x < input.dim(2); ++x) acc += input.at3(ch, y, x);
      }
      output[ch] = acc / static_cast<float>(area);
    }
  });
  count_add(input.numel());
  count_act_read(input.numel() * 4);
  count_act_write(c * 4);
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
