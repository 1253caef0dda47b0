// Versioned, size-bounded in-memory checkpoints for StreamSession state.
//
// Unlike common/serialization.hpp (fstream-backed model I/O), checkpoints
// live in a per-session byte vector inside the SessionManager: taking one
// must not touch the filesystem or allocate beyond the (reused) vector, and
// restoring one must be able to reject truncated or mismatched bytes with a
// typed error rather than undefined reads.
//
// Format: every checkpoint starts with {kMagic, kVersion} (written by
// SessionBase), followed by length-prefixed fields. The version policy is
// strict equality — a checkpoint is a crash-recovery artifact with the
// lifetime of one serving process, not an archival format, so there is no
// cross-version migration: bump kVersion whenever any session's layout
// changes and old bytes are simply rejected (CheckpointMismatch). A frame
// is a function of field values only: spans of element types with padding
// (events::Event, gnn::GraphNode, core::Decision) are written through
// padded_span, which zeroes the padding bytes.
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace evd::fault {

inline constexpr std::uint32_t kCheckpointMagic = 0x45564443;  // "EVDC"
inline constexpr std::uint32_t kCheckpointVersion = 5;

/// Throws Error(CheckpointCorrupt, what) unless a decoded value is valid.
inline void expect_valid(bool ok, const char* what) {
  if (!ok) throw Error(ErrorCode::CheckpointCorrupt, what);
}

class CheckpointWriter {
 public:
  /// Appends into `out` (cleared first); throws Error(CheckpointTooLarge)
  /// as soon as the running size would exceed `max_bytes`.
  CheckpointWriter(std::vector<std::uint8_t>& out, std::size_t max_bytes)
      : out_(out), max_bytes_(max_bytes) {
    out_.clear();
  }

  void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }

  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    raw(s.data(), s.size());
  }

  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(T));
  }

  /// Length-prefixed span of trivially copyable elements.
  template <typename T>
  void pod_span(std::span<const T> values) {
    i64(static_cast<std::int64_t>(values.size()));
    pod_run(values);
  }

  /// Unprefixed elements: one piece of a span whose count the caller wrote.
  template <typename T>
  void pod_run(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(values.data(), values.size_bytes());
  }

  template <typename T>
  void pod_vector(const std::vector<T>& values) {
    pod_span(std::span<const T>(values));
  }

  /// pod_span for a T whose one padding gap lies between members `before`
  /// and `after`: one bulk copy, then the gap is zeroed in every copied
  /// element. Padding holds whatever memory held, so without this two
  /// field-equal states could save different frames.
  template <typename T, typename A, typename B>
  void padded_span(std::span<const T> values, A T::*before, B T::*after) {
    const T probe{};
    const auto offset = [&](const auto& member) {
      return static_cast<std::size_t>(
          reinterpret_cast<const std::uint8_t*>(&member) -
          reinterpret_cast<const std::uint8_t*>(&probe));
    };
    const std::size_t gap = offset(probe.*before) + sizeof(A);
    const std::size_t gap_bytes = offset(probe.*after) - gap;
    const std::size_t at = out_.size() + sizeof(std::int64_t);
    pod_span(values);
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::memset(out_.data() + at + i * sizeof(T) + gap, 0, gap_bytes);
    }
  }

  std::size_t bytes_written() const noexcept { return out_.size(); }

 private:
  void raw(const void* data, std::size_t n) {
    if (out_.size() + n > max_bytes_) {
      throw Error(ErrorCode::CheckpointTooLarge,
                  "checkpoint would exceed " + std::to_string(max_bytes_) +
                      " bytes");
    }
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), bytes, bytes + n);
  }

  std::vector<std::uint8_t>& out_;
  std::size_t max_bytes_;
};

class CheckpointReader {
 public:
  explicit CheckpointReader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  std::uint8_t u8() { return read_as<std::uint8_t>(); }
  std::uint32_t u32() { return read_as<std::uint32_t>(); }
  std::int64_t i64() { return read_as<std::int64_t>(); }
  double f64() { return read_as<double>(); }

  std::string str() {
    const std::size_t n = length();
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }

  template <typename T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(T));
  }

  /// Resizes `values` to the stored count, which must not exceed
  /// `max_count` (CheckpointCorrupt otherwise, checked before the resize).
  template <typename T>
  void pod_vector(std::vector<T>& values,
                  std::size_t max_count = static_cast<std::size_t>(-1)) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = length();  // bounded by remaining(): no huge alloc
    expect_valid(n <= max_count, "stored span larger than its target buffer");
    check_available(n * sizeof(T));
    values.resize(n);
    raw(values.data(), n * sizeof(T));
  }

  /// Reads into a fixed caller-owned span; the stored count must not exceed
  /// the span (CheckpointCorrupt otherwise). Returns the stored count —
  /// trailing span elements are left untouched.
  template <typename T>
  Index pod_span_into(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = length();
    expect_valid(n <= out.size(), "stored span larger than its target buffer");
    raw(out.data(), n * sizeof(T));
    return static_cast<Index>(n);
  }

  /// pod_span_into whose stored count must fill `out` exactly.
  template <typename T>
  void pod_span_exact(std::span<T> out) {
    expect_valid(static_cast<std::size_t>(pod_span_into(out)) == out.size(),
                 "stored span shorter than its target buffer");
  }

  /// Reads `out.size()` unprefixed elements (CheckpointWriter::pod_run).
  template <typename T>
  void pod_run(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(out.data(), out.size_bytes());
  }

  std::size_t remaining() const noexcept { return bytes_.size() - cursor_; }

  /// Every load must end exactly at the last byte — trailing garbage means
  /// the writer and reader disagree about the layout.
  void expect_end() const {
    if (remaining() != 0) {
      throw Error(ErrorCode::CheckpointCorrupt,
                  std::to_string(remaining()) + " trailing bytes");
    }
  }

 private:
  template <typename T>
  T read_as() {
    T v;
    raw(&v, sizeof(T));
    return v;
  }

  /// Length prefix, validated against the bytes actually present so corrupt
  /// counts can never drive a huge allocation or an out-of-bounds read.
  std::size_t length() {
    const std::int64_t n = i64();
    expect_valid(n >= 0 && static_cast<std::size_t>(n) <= remaining(),
                 "invalid length prefix");
    return static_cast<std::size_t>(n);
  }

  void check_available(std::size_t n) const {
    expect_valid(n <= remaining(), "truncated checkpoint");
  }

  void raw(void* data, std::size_t n) {
    check_available(n);
    // An empty vector's data() may be null, which memcpy forbids even for
    // zero bytes (UBSan aborts on a decoded empty pod_vector otherwise).
    if (n == 0) return;
    std::memcpy(data, bytes_.data() + cursor_, n);
    cursor_ += n;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace evd::fault
