// Minimal dense float tensor.
//
// Row-major, arbitrary rank, value semantics. This is deliberately a small
// surface: the layers in evd::nn implement their own loops (and their own
// backward passes), so the tensor only needs shape algebra, element access
// and a few whole-tensor operations.
#pragma once

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace evd::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<Index> shape);
  Tensor(std::initializer_list<Index> shape)
      : Tensor(std::vector<Index>(shape)) {}

  static Tensor zeros(std::vector<Index> shape) { return Tensor(std::move(shape)); }
  static Tensor full(std::vector<Index> shape, float value);
  /// I.i.d. normal entries (used by initializers).
  static Tensor randn(std::vector<Index> shape, Rng& rng, float stddev = 1.0f);

  const std::vector<Index>& shape() const noexcept { return shape_; }
  Index rank() const noexcept { return static_cast<Index>(shape_.size()); }
  Index dim(Index axis) const { return shape_.at(static_cast<size_t>(axis)); }
  Index numel() const noexcept { return static_cast<Index>(data_.size()); }
  bool empty() const noexcept { return data_.empty(); }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::vector<float>& vec() noexcept { return data_; }
  const std::vector<float>& vec() const noexcept { return data_; }

  float& operator[](Index i) { return data_[static_cast<size_t>(i)]; }
  float operator[](Index i) const { return data_[static_cast<size_t>(i)]; }

  /// 3-D access (channel, row, col) for feature maps. Bounds unchecked.
  float& at3(Index c, Index h, Index w) noexcept {
    return data_[static_cast<size_t>((c * shape_[1] + h) * shape_[2] + w)];
  }
  float at3(Index c, Index h, Index w) const noexcept {
    return data_[static_cast<size_t>((c * shape_[1] + h) * shape_[2] + w)];
  }
  /// 2-D access (row, col) for matrices. Bounds unchecked.
  float& at2(Index r, Index c) noexcept {
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }
  float at2(Index r, Index c) const noexcept {
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }

  /// Reshape in place; new shape must preserve numel. Returns *this.
  Tensor& reshape(std::vector<Index> shape);

  /// Give the tensor `shape`, keeping its storage: an unchanged shape is a
  /// no-op, and a change within the current capacity allocates nothing.
  /// Element values are unspecified afterwards (forward_into outputs are
  /// shaped this way and then have every element written).
  void ensure_shape(std::initializer_list<Index> shape) {
    ensure_shape(shape.begin(), shape.size());
  }
  void ensure_shape(const std::vector<Index>& shape) {
    ensure_shape(shape.data(), shape.size());
  }

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Element-wise accumulate: *this += other (shapes must match).
  Tensor& operator+=(const Tensor& other);
  /// Scale all elements.
  Tensor& operator*=(float s);

  /// Fraction of exactly-zero elements (sparsity measure).
  double zero_fraction() const noexcept;
  float max_abs() const noexcept;
  double sum() const noexcept;

  /// Index of the maximum element (argmax over the flat view).
  Index argmax() const;

  std::string shape_string() const;

 private:
  void ensure_shape(const Index* dims, size_t rank) {
    if (shape_.size() != rank ||
        !std::equal(dims, dims + rank, shape_.begin())) {
      assign_shape(dims, rank);
    }
  }
  void assign_shape(const Index* dims, size_t rank);

  std::vector<Index> shape_;
  std::vector<float> data_;
};

/// Throwing shape-compatibility check used at layer boundaries.
void check_shape(const Tensor& t, const std::vector<Index>& expected,
                 const char* where);

}  // namespace evd::nn
