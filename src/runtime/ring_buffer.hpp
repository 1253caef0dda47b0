// Fixed-capacity FIFO ring. Storage is allocated once at construction and
// never resized — the primitive under EventQueue. Single-threaded by
// design: the runtime's concurrency model
// is "one thread owns a session and everything attached to it" (the
// SessionManager hands disjoint sessions to disjoint pool workers), so the
// ring needs no atomics and costs two index updates per op.
#pragma once

#include <utility>
#include <vector>

#include "common/types.hpp"

namespace evd::runtime {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(Index capacity)
      : slots_(static_cast<size_t>(capacity < 1 ? 1 : capacity)) {}

  Index capacity() const noexcept { return static_cast<Index>(slots_.size()); }
  Index size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  bool full() const noexcept { return count_ == capacity(); }

  /// False (and no change) when full.
  bool push(const T& value) {
    if (full()) return false;
    slots_[static_cast<size_t>(tail_)] = value;
    tail_ = next(tail_);
    ++count_;
    return true;
  }

  /// False when empty; otherwise moves the oldest element into `out`.
  bool pop(T& out) {
    if (empty()) return false;
    out = std::move(slots_[static_cast<size_t>(head_)]);
    head_ = next(head_);
    --count_;
    return true;
  }

  /// Drop the oldest element (no-op when empty). Returns whether one was
  /// dropped — the DropOldest overflow policy.
  bool drop_front() {
    if (empty()) return false;
    head_ = next(head_);
    --count_;
    return true;
  }

  const T& front() const { return slots_[static_cast<size_t>(head_)]; }

  void clear() noexcept {
    head_ = tail_ = 0;
    count_ = 0;
  }

 private:
  Index next(Index i) const noexcept {
    return i + 1 == capacity() ? 0 : i + 1;
  }

  std::vector<T> slots_;
  Index head_ = 0;
  Index tail_ = 0;
  Index count_ = 0;
};

}  // namespace evd::runtime
