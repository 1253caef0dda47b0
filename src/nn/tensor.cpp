#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace evd::nn {

namespace {
Index shape_numel(const Index* dims, size_t rank) {
  Index n = 1;
  for (size_t i = 0; i < rank; ++i) {
    if (dims[i] < 0) throw std::invalid_argument("Tensor: negative dimension");
    n *= dims[i];
  }
  return n;
}

Index shape_numel(const std::vector<Index>& shape) {
  return shape_numel(shape.data(), shape.size());
}
}  // namespace

Tensor::Tensor(std::vector<Index> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(shape_numel(shape_)), 0.0f);
}

Tensor Tensor::full(std::vector<Index> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(std::vector<Index> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

Tensor& Tensor::reshape(std::vector<Index> shape) {
  if (shape_numel(shape) != numel()) {
    throw std::invalid_argument("Tensor::reshape: numel mismatch");
  }
  shape_ = std::move(shape);
  return *this;
}

void Tensor::assign_shape(const Index* dims, size_t rank) {
  const Index n = shape_numel(dims, rank);
  shape_.assign(dims, dims + rank);
  data_.resize(static_cast<size_t>(n));
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  if (other.numel() != numel()) {
    throw std::invalid_argument("Tensor::operator+=: numel mismatch");
  }
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

double Tensor::zero_fraction() const noexcept {
  if (data_.empty()) return 0.0;
  Index zeros = 0;
  for (const float v : data_) zeros += (v == 0.0f) ? 1 : 0;
  return static_cast<double>(zeros) / static_cast<double>(data_.size());
}

float Tensor::max_abs() const noexcept {
  float m = 0.0f;
  for (const float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Tensor::sum() const noexcept {
  double s = 0.0;
  for (const float v : data_) s += v;
  return s;
}

Index Tensor::argmax() const {
  if (data_.empty()) throw std::logic_error("Tensor::argmax: empty tensor");
  return static_cast<Index>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

std::string Tensor::shape_string() const {
  std::string s = "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(shape_[i]);
  }
  return s + "]";
}

void check_shape(const Tensor& t, const std::vector<Index>& expected,
                 const char* where) {
  if (t.shape() != expected) {
    Tensor probe(expected);
    throw std::invalid_argument(std::string(where) + ": expected shape " +
                                probe.shape_string() + ", got " +
                                t.shape_string());
  }
}

}  // namespace evd::nn
