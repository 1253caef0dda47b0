// MpscRing: capacity shaping, FIFO order, full-ring rejection, and — the
// reason the type exists — multi-producer safety. The
// concurrent tests are the ones the CI sanitizer jobs (TSAN above all) are
// pointed at: this is the runtime's first genuinely lock-free structure.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "shard/mpsc_ring.hpp"

namespace evd::shard {
namespace {

TEST(ShardMpscRing, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(1).capacity(), 1);
  EXPECT_EQ(MpscRing<int>(2).capacity(), 2);
  EXPECT_EQ(MpscRing<int>(3).capacity(), 4);
  EXPECT_EQ(MpscRing<int>(4096).capacity(), 4096);
  EXPECT_EQ(MpscRing<int>(5000).capacity(), 8192);
  EXPECT_EQ(MpscRing<int>(0).capacity(), 1);  // floor, not a crash
}

TEST(ShardMpscRing, SingleProducerIsFifo) {
  MpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));  // drained
}

TEST(ShardMpscRing, RejectsWhenFullAndRecoversAfterPop) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full: explicit back-pressure
  int out = -1;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(99));  // the freed cell is reusable
  // Remaining order: 1, 2, 3, 99.
  std::vector<int> rest;
  while (ring.try_pop(out)) rest.push_back(out);
  EXPECT_EQ(rest, (std::vector<int>{1, 2, 3, 99}));
}

// The lock-free claim, exercised: P producer threads push tagged values
// while the consumer drains concurrently. Everything pushed arrives exactly
// once, and each producer's own values arrive in its push order (the
// per-producer FIFO guarantee replay-transparency rests on). Run under
// TSAN and ASan+UBSan in CI.
TEST(ShardMpscRing, ConcurrentProducersDeliverEverythingInProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  MpscRing<std::uint32_t> ring(256);  // small: forces full-ring contention

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &ring] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto value =
            static_cast<std::uint32_t>((p << 16) | i);  // tag | sequence
        while (!ring.try_push(value)) std::this_thread::yield();
      }
    });
  }

  std::vector<std::uint32_t> next(kProducers, 0);  // expected seq per tag
  int received = 0;
  std::uint32_t out = 0;
  while (received < kProducers * kPerProducer) {
    if (!ring.try_pop(out)) {
      std::this_thread::yield();
      continue;
    }
    const auto tag = static_cast<int>(out >> 16);
    const std::uint32_t seq = out & 0xFFFFu;
    ASSERT_LT(tag, kProducers);
    ASSERT_EQ(seq, next[static_cast<size_t>(tag)]) << "producer " << tag;
    ++next[static_cast<size_t>(tag)];
    ++received;
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(ring.empty_approx());
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[static_cast<size_t>(p)],
              static_cast<std::uint32_t>(kPerProducer));
  }
}

}  // namespace
}  // namespace evd::shard
