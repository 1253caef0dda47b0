// Bounded FIFO ring — the primitive under EventQueue. Storage starts at a
// small first block (kFirstBlock entries, or the bound when that is
// smaller) and is replaced once, by a block of the full bound, when a push
// finds the first block full; it never grows or shrinks again. So a
// session that queues a few ops between pumps holds a few hundred bytes,
// not its whole bound, and a busy one reallocates exactly once.
// Single-threaded by design: the runtime's concurrency model is "one thread
// owns a session and everything attached to it" (the SessionManager hands
// disjoint sessions to disjoint pool workers), so the ring needs no atomics
// and costs two index updates per op.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace evd::runtime {

/// Entries in the first block of a session's queue ring and of its
/// decision sink (decision_sink.hpp) before their one growth step.
inline constexpr Index kFirstBlock = 16;

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(Index capacity)
      : capacity_(capacity < 1 ? 1 : capacity),
        slots_(static_cast<size_t>(std::min(capacity_, kFirstBlock))) {}

  /// The configured bound, whichever block currently holds the elements.
  Index capacity() const noexcept { return capacity_; }
  Index size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  bool full() const noexcept { return count_ == capacity_; }

  /// False (and no change) when full.
  bool push(const T& value) {
    if (full()) return false;
    if (count_ == block()) grow();
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

  /// Forgets the elements and keeps the storage.
  void clear() noexcept {
    head_ = tail_ = 0;
    count_ = 0;
  }

 private:
  Index block() const noexcept { return static_cast<Index>(slots_.size()); }

  Index next(Index i) const noexcept { return i + 1 == block() ? 0 : i + 1; }

  /// The one growth step: the full first block moves, oldest first, to the
  /// front of a block of the full bound.
  void grow() {
    std::vector<T> bound(static_cast<size_t>(capacity_));
    for (Index i = 0; i < count_; ++i) {
      bound[static_cast<size_t>(i)] =
          std::move(slots_[static_cast<size_t>((head_ + i) % block())]);
    }
    slots_.swap(bound);
    head_ = 0;
    tail_ = count_;
  }

  Index capacity_;
  std::vector<T> slots_;
  Index head_ = 0;
  Index tail_ = 0;
  Index count_ = 0;
};

}  // namespace evd::runtime
