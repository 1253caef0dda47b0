// Bounded lock-free MPSC ring — the ingress lane between producer threads
// and a shard's pump loop.
//
// This is the classic bounded sequence-number queue (Vyukov's MPMC design,
// restricted here to a single consumer): each cell carries an atomic
// sequence number that encodes, relative to the head/tail tickets, whether
// the cell is free to write or ready to read. Producers claim a ticket with
// one CAS and then publish their cell independently — no producer ever
// waits on another producer's store, and the consumer never takes a lock.
//
// Why the runtime wants it (DESIGN.md section 15): SessionManager::submit
// runs the admission pipeline under the assumption that submit and pump are
// externally serialized per manager. The sharded runtime keeps that
// assumption *per shard* by making this ring the only structure producers
// touch — any thread may feed any session while the shard's pump drains on
// another, and the manager lock discipline is unchanged.
//
// Progress/ordering contract:
//   * try_push is lock-free and safe from any number of threads; per
//     producer, pushes are FIFO (a producer's own ops drain in the order it
//     pushed them — exactly the guarantee replay-transparency needs).
//   * try_pop must only be called from one thread at a time (the shard's
//     pump). Single-consumer lets the pop side skip its CAS.
//   * Capacity is fixed at construction (rounded up to a power of two) and
//     a full ring rejects the push — explicit back-pressure, accounted by
//     the caller, never silent loss.
//
// Each ring owns its cells, one 64-byte-aligned allocation, so the hot
// producer/consumer memory of different shards never shares a cache line.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/types.hpp"

namespace evd::shard {

/// Smallest power of two >= n (1 for n <= 1). Ring capacities are rounded
/// up so index masking replaces modulo on the hot path.
constexpr Index ceil_pow2(Index n) noexcept {
  Index p = 1;
  while (p < n) p <<= 1;
  return p;
}

template <typename T>
class MpscRing {
 public:
  /// One cache line per cell: a producer publishing cell i and the consumer
  /// reading cell j never false-share, whatever i and j.
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  /// Capacity is rounded up to a power of two.
  explicit MpscRing(Index capacity)
      : mask_(static_cast<std::uint64_t>(ceil_pow2(capacity)) - 1),
        cells_(new Cell[mask_ + 1]) {
    for (std::uint64_t i = 0; i <= mask_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  /// Multi-producer enqueue. False iff the ring is full (the op is the
  /// caller's to account as shed).
  bool try_push(const T& value) {
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell.value = value;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS lost: `pos` was reloaded by compare_exchange, retry there.
      } else if (dif < 0) {
        return false;  // the cell still holds an unconsumed lap: full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer dequeue. False when the ring is (currently) empty.
  bool try_pop(T& out) {
    const std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(seq) -
            static_cast<std::int64_t>(pos + 1) < 0) {
      return false;  // producer has not published this cell yet
    }
    out = cell.value;
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  Index capacity() const noexcept { return static_cast<Index>(mask_ + 1); }

  /// Approximate occupancy — exact only when producers and the consumer are
  /// quiescent. Good enough for stats and tests; never used for control.
  Index size_approx() const noexcept {
    const std::uint64_t tail = enqueue_pos_.load(std::memory_order_relaxed);
    const std::uint64_t head = dequeue_pos_.load(std::memory_order_relaxed);
    return tail >= head ? static_cast<Index>(tail - head) : 0;
  }

  bool empty_approx() const noexcept { return size_approx() == 0; }

 private:
  std::uint64_t mask_;
  std::unique_ptr<Cell[]> cells_;
  /// Head and tail tickets on their own cache lines: producers hammer the
  /// tail CAS, the consumer owns the head — sharing a line would put every
  /// push in the consumer's coherence traffic.
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
};

}  // namespace evd::shard
