// RingBuffer + EventQueue: wraparound, overflow policies, loss accounting.
#include <gtest/gtest.h>

#include "runtime/event_queue.hpp"
#include "runtime/ring_buffer.hpp"

namespace evd::runtime {
namespace {

events::Event event_at(TimeUs t) {
  events::Event e;
  e.x = 1;
  e.y = 2;
  e.polarity = Polarity::On;
  e.t = t;
  return e;
}

TEST(RingBuffer, PushPopWrapsAround) {
  RingBuffer<int> ring(3);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 3);

  for (int round = 0; round < 5; ++round) {
    // Fill, drain one, fill again: the head/tail wrap every round.
    EXPECT_TRUE(ring.push(round * 10 + 1));
    EXPECT_TRUE(ring.push(round * 10 + 2));
    EXPECT_TRUE(ring.push(round * 10 + 3));
    EXPECT_TRUE(ring.full());
    EXPECT_FALSE(ring.push(99));

    int out = 0;
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, round * 10 + 1);
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, round * 10 + 2);
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, round * 10 + 3);
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.pop(out));
  }
}

TEST(RingBuffer, DropFrontEvictsOldest) {
  RingBuffer<int> ring(2);
  ring.push(1);
  ring.push(2);
  ring.drop_front();
  EXPECT_EQ(ring.size(), 1);
  int out = 0;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 2);
}

TEST(RingBuffer, GrowsOnceFromAWrappedFirstBlockInOrder) {
  // Bound 40 over a 16-entry first block: wrap the head inside the block,
  // fill the block, then push past it. The growth step keeps FIFO order.
  RingBuffer<int> ring(40);
  int out = 0;
  for (int v = 0; v < 10; ++v) ASSERT_TRUE(ring.push(v));
  for (int v = 0; v < 7; ++v) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, v);
  }
  for (int v = 10; v < 23; ++v) ASSERT_TRUE(ring.push(v));
  EXPECT_EQ(ring.size(), kFirstBlock);
  for (int v = 23; v < 47; ++v) ASSERT_TRUE(ring.push(v));
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.capacity(), 40);
  EXPECT_FALSE(ring.push(99));
  for (int v = 7; v < 47; ++v) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(EventQueue, DropNewestRejectsIncomingWhenFull) {
  EventQueue queue(2, OverflowPolicy::DropNewest);
  EXPECT_TRUE(queue.push(StreamOp::feed(event_at(10))));
  EXPECT_TRUE(queue.push(StreamOp::feed(event_at(20))));
  EXPECT_FALSE(queue.push(StreamOp::feed(event_at(30))));  // lost

  StreamOp op;
  ASSERT_TRUE(queue.pop(op));
  EXPECT_EQ(op.t, 10);  // oldest data survived (back-pressure)
  ASSERT_TRUE(queue.pop(op));
  EXPECT_EQ(op.t, 20);
  EXPECT_FALSE(queue.pop(op));

  EXPECT_EQ(queue.stats().pushed, 2);
  EXPECT_EQ(queue.stats().dropped, 1);
  EXPECT_EQ(queue.stats().popped, 2);
}

TEST(EventQueue, DropOldestEvictsFrontToAdmitNew) {
  EventQueue queue(2, OverflowPolicy::DropOldest);
  queue.push(StreamOp::feed(event_at(10)));
  queue.push(StreamOp::feed(event_at(20)));
  EXPECT_FALSE(queue.push(StreamOp::feed(event_at(30))));  // an op was lost

  StreamOp op;
  ASSERT_TRUE(queue.pop(op));
  EXPECT_EQ(op.t, 20);  // freshest data survived
  ASSERT_TRUE(queue.pop(op));
  EXPECT_EQ(op.t, 30);

  EXPECT_EQ(queue.stats().pushed, 3);
  EXPECT_EQ(queue.stats().dropped, 1);
}

TEST(EventQueue, DropOldestAccountsEveryDisplacedOpUnderSustainedOverflow) {
  // Sustained overflow: a capacity-8 queue receives 10x its capacity. Every
  // push past the first 8 displaces exactly one op, so the ledger must read
  // dropped == pushes - capacity with nothing double- or under-counted.
  constexpr Index kCapacity = 8;
  constexpr Index kPushes = 80;
  EventQueue queue(kCapacity, OverflowPolicy::DropOldest);
  for (Index i = 0; i < kPushes; ++i) {
    const bool accepted_cleanly =
        queue.push(StreamOp::feed(event_at(static_cast<TimeUs>(i))));
    EXPECT_EQ(accepted_cleanly, i < kCapacity) << "push " << i;
  }
  EXPECT_EQ(queue.stats().pushed, kPushes);
  EXPECT_EQ(queue.stats().dropped, kPushes - kCapacity);
  EXPECT_EQ(queue.size(), kCapacity);

  // The survivors are exactly the freshest kCapacity ops, still in order.
  StreamOp op;
  for (Index i = kPushes - kCapacity; i < kPushes; ++i) {
    ASSERT_TRUE(queue.pop(op));
    EXPECT_EQ(op.t, static_cast<TimeUs>(i));
  }
  EXPECT_FALSE(queue.pop(op));
  EXPECT_EQ(queue.stats().popped, kCapacity);

  // Interleaved drain/overflow rounds: accounting stays exact when the ring
  // wraps many times with pops in between.
  EventQueue churn(kCapacity, OverflowPolicy::DropOldest);
  TimeUs t = 0;
  for (int round = 0; round < 5; ++round) {
    for (Index i = 0; i < 2 * kCapacity; ++i) {
      churn.push(StreamOp::feed(event_at(t++)));
    }
    StreamOp out;
    for (Index i = 0; i < kCapacity / 2; ++i) churn.pop(out);
  }
  // Round 1 admits kCapacity freely; every other push displaces. Rounds 2+
  // start half-full (kCapacity/2 free): 2*kCapacity - kCapacity/2 displace.
  const std::int64_t expect =
      (2 * kCapacity - kCapacity) + 4 * (2 * kCapacity - kCapacity / 2);
  EXPECT_EQ(churn.stats().dropped, expect);
  EXPECT_EQ(churn.stats().pushed, 5 * 2 * kCapacity);
}

TEST(EventQueue, LedgerStaysConsistentThroughMixedTrafficDropNewest) {
  // The conservation law (pushed == popped + size; rejections on the side)
  // must hold at *every* observation point of a mixed feed/advance schedule
  // that repeatedly overflows, not just at quiescence.
  EventQueue queue(3, OverflowPolicy::DropNewest);
  EXPECT_EQ(queue.policy(), OverflowPolicy::DropNewest);
  ASSERT_TRUE(queue.ledger_consistent());  // empty queue: trivially balanced
  TimeUs t = 0;
  StreamOp out;
  for (int round = 0; round < 20; ++round) {
    for (Index i = 0; i < 5; ++i) {  // 2 of 5 rejected each full round
      queue.push(i % 3 == 2 ? StreamOp::advance(t) : StreamOp::feed(event_at(t)));
      ++t;
      ASSERT_TRUE(queue.ledger_consistent()) << "round " << round;
    }
    for (Index i = 0; i < 2; ++i) {
      queue.pop(out);
      ASSERT_TRUE(queue.ledger_consistent()) << "round " << round;
    }
  }
  while (queue.pop(out)) {
    ASSERT_TRUE(queue.ledger_consistent());
  }
  // Fully drained: every admitted op was popped, every rejection counted.
  EXPECT_EQ(queue.size(), 0);
  EXPECT_EQ(queue.stats().pushed, queue.stats().popped);
  EXPECT_EQ(queue.stats().pushed + queue.stats().dropped, 100);
}

TEST(EventQueue, LedgerStaysConsistentThroughMixedTrafficDropOldest) {
  // Under DropOldest the evicted op *was* pushed, so the law gains the
  // dropped term: pushed == popped + size + dropped, at every point.
  EventQueue queue(3, OverflowPolicy::DropOldest);
  EXPECT_EQ(queue.policy(), OverflowPolicy::DropOldest);
  TimeUs t = 0;
  StreamOp out;
  for (int round = 0; round < 20; ++round) {
    for (Index i = 0; i < 5; ++i) {
      queue.push(i % 3 == 2 ? StreamOp::advance(t) : StreamOp::feed(event_at(t)));
      ++t;
      ASSERT_TRUE(queue.ledger_consistent()) << "round " << round;
    }
    queue.pop(out);
    ASSERT_TRUE(queue.ledger_consistent()) << "round " << round;
  }
  while (queue.pop(out)) {
    ASSERT_TRUE(queue.ledger_consistent());
  }
  EXPECT_EQ(queue.stats().pushed, 100);
  EXPECT_EQ(queue.stats().popped + queue.stats().dropped, 100);
}

TEST(EventQueue, DrainToLossEmptiesAndKeepsTheLedger) {
  for (const auto policy :
       {OverflowPolicy::DropNewest, OverflowPolicy::DropOldest}) {
    EventQueue queue(4, policy);
    for (TimeUs t = 0; t < 6; ++t) queue.push(StreamOp::feed(event_at(t)));
    ASSERT_TRUE(queue.ledger_consistent());
    EXPECT_EQ(queue.drain_to_loss(), 4);  // full queue drained
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.stats().popped, 4);
    EXPECT_TRUE(queue.ledger_consistent());
    EXPECT_EQ(queue.drain_to_loss(), 0);  // idempotent on empty
    EXPECT_TRUE(queue.ledger_consistent());
  }
}

TEST(StreamOp, FeedRoundTripsItsEventInThreeWords) {
  static_assert(sizeof(StreamOp) == 24);
  events::Event e;
  e.x = -7;
  e.y = 31000;
  e.polarity = Polarity::Off;
  e.t = -123456789012;
  const StreamOp op = StreamOp::feed(e);
  EXPECT_EQ(op.kind, StreamOp::Kind::Feed);
  EXPECT_EQ(op.event(), e);
  EXPECT_EQ(op.enqueue_ns, 0);
  const StreamOp adv = StreamOp::advance(42);
  EXPECT_EQ(adv.kind, StreamOp::Kind::Advance);
  EXPECT_EQ(adv.t, 42);
}

TEST(EventQueue, CarriesAdvanceMarksInOrder) {
  EventQueue queue(4, OverflowPolicy::DropNewest);
  queue.push(StreamOp::feed(event_at(5)));
  queue.push(StreamOp::advance(100));

  StreamOp op;
  ASSERT_TRUE(queue.pop(op));
  EXPECT_EQ(op.kind, StreamOp::Kind::Feed);
  EXPECT_EQ(op.event(), event_at(5));
  ASSERT_TRUE(queue.pop(op));
  EXPECT_EQ(op.kind, StreamOp::Kind::Advance);
  EXPECT_EQ(op.t, 100);
}

}  // namespace
}  // namespace evd::runtime
