// The ingress queue between a sensor stream and a StreamSession.
//
// Event cameras produce at rates the consumer cannot always match (the
// paper's §II sensor-trend argument; Gen4 sensors ship a hardware rate
// controller for exactly this reason). The runtime models that boundary
// explicitly: each managed session is fed through a fixed-capacity
// EventQueue whose overflow policy decides what happens when the consumer
// falls behind —
//
//   DropNewest — reject the incoming op (sensor-side back-pressure; the
//                FIFO keeps the oldest data, matching the ERC "Suppress"
//                policy in events/rate_controller.hpp);
//   DropOldest — evict the oldest queued op to admit the new one
//                (freshness-first: latency-critical consumers prefer
//                recent events over a complete history).
//
// The queue carries the full session op stream — events and advance_to
// marks — so draining it replays exactly what a direct caller would have
// done, in order. The ring starts at a 16-op first block and grows once, to
// the full capacity, when a push finds that block full (ring_buffer.hpp);
// every other push, and every pop, is allocation-free.
#pragma once

#include "events/event.hpp"
#include "runtime/ring_buffer.hpp"

namespace evd::runtime {

enum class OverflowPolicy { DropNewest, DropOldest };

/// One queued session operation: an event, or a time advance. 24 bytes,
/// laid out flat: the event's address and polarity share the first 8 bytes
/// with the kind tag (in what is padding in events::Event), then one
/// timestamp that is the event time for a Feed and the target for an
/// Advance, then the latency stamp. A session's queue is 384 B until its
/// 16-op first block fills, then its bound: 12 KiB at 512 ops.
struct StreamOp {
  enum class Kind : std::uint8_t { Feed, Advance };
  std::int16_t x = 0;
  std::int16_t y = 0;
  Polarity polarity = Polarity::On;
  Kind kind = Kind::Feed;
  TimeUs t = 0;  ///< Event time (Feed) or advance target (Advance).
  /// Observability stamp (ns, tracer clock) taken at submit time; 0 when
  /// metrics were disabled at enqueue. Feeds the feed→decision histograms.
  std::int64_t enqueue_ns = 0;

  /// The Feed's event, rebuilt from the flat fields.
  events::Event event() const noexcept {
    events::Event e;
    e.x = x;
    e.y = y;
    e.polarity = polarity;
    e.t = t;
    return e;
  }

  static StreamOp feed(const events::Event& e) {
    StreamOp op;
    op.kind = Kind::Feed;
    op.x = e.x;
    op.y = e.y;
    op.polarity = e.polarity;
    op.t = e.t;
    return op;
  }
  static StreamOp advance(TimeUs t) {
    StreamOp op;
    op.kind = Kind::Advance;
    op.t = t;
    return op;
  }
};
static_assert(sizeof(StreamOp) == 24, "StreamOp is three words");

class EventQueue {
 public:
  struct Stats {
    std::int64_t pushed = 0;   ///< Ops accepted into the queue.
    std::int64_t dropped = 0;  ///< Ops lost to the overflow policy.
    std::int64_t popped = 0;

    bool operator==(const Stats&) const = default;
  };

  EventQueue(Index capacity, OverflowPolicy policy)
      : ring_(capacity), policy_(policy) {}

  /// Enqueue under the overflow policy. Returns false iff an op was lost:
  /// under DropNewest the rejected `op` itself, under DropOldest the
  /// evicted front (the new op is always admitted).
  bool push(const StreamOp& op) {
    if (ring_.full()) {
      ++stats_.dropped;
      if (policy_ == OverflowPolicy::DropNewest) return false;
      ring_.drop_front();
      ring_.push(op);
      ++stats_.pushed;
      return false;
    }
    ring_.push(op);
    ++stats_.pushed;
    return true;
  }

  bool pop(StreamOp& out) {
    if (!ring_.pop(out)) return false;
    ++stats_.popped;
    return true;
  }

  Index size() const noexcept { return ring_.size(); }
  Index capacity() const noexcept { return ring_.capacity(); }
  bool empty() const noexcept { return ring_.empty(); }
  const Stats& stats() const noexcept { return stats_; }
  OverflowPolicy policy() const noexcept { return policy_; }

  /// Pop-and-discard everything queued; returns how many ops were lost.
  /// The quarantine path: a faulted session's backlog is drained into loss
  /// accounting (the caller charges the count), keeping the ledger intact.
  Index drain_to_loss() {
    StreamOp op;
    Index n = 0;
    while (pop(op)) ++n;
    return n;
  }

  /// The conservation law every observation point must satisfy. Under
  /// DropNewest a rejected op is never pushed, so pushed == popped + size
  /// and `dropped` counts rejections on the side; under DropOldest the
  /// evicted op *was* pushed, so pushed == popped + size + dropped.
  bool ledger_consistent() const noexcept {
    const std::int64_t accounted = stats_.popped + size();
    return policy_ == OverflowPolicy::DropNewest
               ? stats_.pushed == accounted
               : stats_.pushed == accounted + stats_.dropped;
  }

 private:
  RingBuffer<StreamOp> ring_;
  OverflowPolicy policy_;
  Stats stats_;
};

}  // namespace evd::runtime
