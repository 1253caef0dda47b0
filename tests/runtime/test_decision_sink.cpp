// DecisionSink: bounded undrained buffer, exactly-once drain, loss
// accounting, and the checkpoint span (validated, never re-delivering).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "runtime/decision_sink.hpp"

namespace evd::runtime {
namespace {

core::Decision decision_at(TimeUs t) {
  core::Decision d;
  d.t = t;
  d.label = static_cast<int>(t % 3);
  d.confidence = 0.5;
  return d;
}

std::vector<std::uint8_t> save(const DecisionSink& sink) {
  std::vector<std::uint8_t> bytes;
  fault::CheckpointWriter w(bytes, 1 << 20);
  sink.save(w);
  return bytes;
}

void load(DecisionSink& sink, const std::vector<std::uint8_t>& bytes) {
  fault::CheckpointReader r(bytes);
  sink.load(r);
  r.expect_end();
}

/// A sink span written by hand: retain, buffer, total, dropped, handed.
std::vector<std::uint8_t> frame(Index retain, Index buffered,
                                std::int64_t total, std::int64_t dropped,
                                std::int64_t handed) {
  std::vector<core::Decision> buffer;
  for (Index i = 0; i < buffered; ++i) buffer.push_back(decision_at(i));
  std::vector<std::uint8_t> bytes;
  fault::CheckpointWriter w(bytes, 1 << 20);
  w.i64(retain);
  w.padded_span(std::span<const core::Decision>(buffer),
                &core::Decision::label, &core::Decision::confidence);
  w.i64(total);
  w.i64(dropped);
  w.i64(handed);
  return bytes;
}

void expect_corrupt(const std::vector<std::uint8_t>& bytes) {
  DecisionSink sink(4);
  try {
    load(sink, bytes);
    FAIL() << "an inconsistent sink span must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::CheckpointCorrupt);
  }
}

TEST(DecisionSink, RetainsAtLeastRetainAtMostTwice) {
  for (TimeUs n = 1; n <= 40; ++n) {
    DecisionSink sink(4);
    for (TimeUs t = 0; t < n; ++t) sink.emit(decision_at(t));
    std::vector<core::Decision> tail;
    sink.drain(tail);
    EXPECT_LE(tail.size(), 8u) << n;  // <= 2 * retain
    EXPECT_GE(tail.size(), static_cast<size_t>(std::min<TimeUs>(n, 4))) << n;
    EXPECT_EQ(sink.total(), n);
    // The undrained buffer is the most recent decisions, oldest first.
    EXPECT_EQ(tail.back().t, n - 1);
    for (size_t i = 1; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i].t, tail[i - 1].t + 1);
    }
  }
}

TEST(DecisionSink, DrainSeesEveryDecisionExactlyOnce) {
  DecisionSink sink(4);
  std::vector<core::Decision> out;
  sink.emit(decision_at(1));
  sink.emit(decision_at(2));
  EXPECT_EQ(sink.drain(out), 2);
  sink.emit(decision_at(3));
  EXPECT_EQ(sink.drain(out), 1);
  EXPECT_EQ(sink.drain(out), 0);  // nothing new

  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].t, 1);
  EXPECT_EQ(out[1].t, 2);
  EXPECT_EQ(out[2].t, 3);
  EXPECT_EQ(sink.dropped(), 0);
}

TEST(DecisionSink, RegularDrainLosesNothingAcrossEviction) {
  DecisionSink sink(2);
  std::vector<core::Decision> out;
  for (TimeUs t = 0; t < 50; ++t) {
    sink.emit(decision_at(t));
    if (t % 3 == 2) sink.drain(out);
  }
  sink.drain(out);
  EXPECT_EQ(sink.dropped(), 0);
  ASSERT_EQ(out.size(), 50u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t, static_cast<TimeUs>(i));
  }
}

TEST(DecisionSink, EvictionBeforeDrainIsCounted) {
  DecisionSink sink(2);
  for (TimeUs t = 0; t < 20; ++t) sink.emit(decision_at(t));
  EXPECT_GT(sink.dropped(), 0);
  std::vector<core::Decision> out;
  const Index drained = sink.drain(out);
  // Conservation: every decision was either drained or reported lost.
  EXPECT_EQ(sink.dropped() + drained, sink.total());
}

TEST(DecisionSink, RetainClampsToOne) {
  DecisionSink sink(0);
  EXPECT_EQ(sink.retain_limit(), 1);
  sink.emit(decision_at(1));
  sink.emit(decision_at(2));
  std::vector<core::Decision> out;
  EXPECT_EQ(sink.drain(out), 2);
}

TEST(DecisionSink, DrainedDecisionsLeaveTheCheckpoint) {
  DecisionSink sink(4);
  sink.emit(decision_at(1));
  const size_t one = save(sink).size();
  std::vector<core::Decision> out;
  for (TimeUs t = 2; t < 30; ++t) {
    sink.emit(decision_at(t));
    sink.drain(out);
  }
  sink.emit(decision_at(30));
  EXPECT_EQ(save(sink).size(), one);
}

TEST(DecisionSink, RestoreNeverRedeliversDrainedDecisions) {
  DecisionSink sink(4);
  std::vector<core::Decision> out;
  sink.emit(decision_at(0));
  sink.emit(decision_at(1));
  const auto checkpoint = save(sink);  // 2 undrained
  sink.emit(decision_at(2));
  EXPECT_EQ(sink.drain(out), 3);

  // Roll back and replay: the restored buffer and the re-emitted decision
  // are all already in the consumer's hands.
  load(sink, checkpoint);
  sink.emit(decision_at(2));
  EXPECT_EQ(sink.drain(out), 0);
  sink.emit(decision_at(3));  // new past the mark
  EXPECT_EQ(sink.drain(out), 1);
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t, static_cast<TimeUs>(i));
  }
  EXPECT_EQ(sink.total(), 4);
}

TEST(DecisionSink, FreshSinkTakesTheCheckpointedCounts) {
  DecisionSink source(4);
  std::vector<core::Decision> out;
  source.emit(decision_at(0));
  source.drain(out);
  source.emit(decision_at(1));

  DecisionSink target(4);  // a migration target
  load(target, save(source));
  EXPECT_EQ(save(target), save(source));
  std::vector<core::Decision> moved;
  EXPECT_EQ(target.drain(moved), 1);
  EXPECT_EQ(moved.front().t, 1);
}

TEST(DecisionSink, SaveRefusesWhileReplayingHandedDecisions) {
  DecisionSink sink(4);
  std::vector<core::Decision> out;
  const auto checkpoint = save(sink);
  sink.emit(decision_at(0));
  sink.drain(out);
  load(sink, checkpoint);  // total 0, handed 1: mid-replay
  try {
    save(sink);
    FAIL() << "a sink behind its consumer has no valid frame";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::CheckpointUnsupported);
  }
  sink.emit(decision_at(0));  // caught up
  EXPECT_NO_THROW(save(sink));
}

TEST(DecisionSink, LoadAcceptsAConsistentHandBuiltFrame) {
  DecisionSink sink(4);
  const auto bytes = frame(4, 3, /*total=*/10, /*dropped=*/2, /*handed=*/5);
  load(sink, bytes);
  EXPECT_EQ(sink.total(), 10);
  EXPECT_EQ(sink.dropped(), 2);
  EXPECT_EQ(save(sink), bytes);
}

TEST(DecisionSink, LoadRejectsNegativeCounts) {
  expect_corrupt(frame(4, 0, -1, 0, 0));
  expect_corrupt(frame(4, 0, 0, -1, 1));
  expect_corrupt(frame(4, 0, 0, 1, -1));
}

TEST(DecisionSink, LoadRejectsATotalTheNextEmitCouldOverflow) {
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  expect_corrupt(frame(4, 0, kMax, 0, kMax));
  expect_corrupt(frame(4, 0, (std::int64_t{1} << 62) + 1, 0, 0));
  DecisionSink sink(4);
  load(sink, frame(4, 0, std::int64_t{1} << 62, 0, std::int64_t{1} << 62));
  sink.emit(decision_at(0));
  std::vector<core::Decision> out;
  EXPECT_EQ(sink.drain(out), 1);
}

TEST(DecisionSink, LoadRejectsCountsThatDoNotAddUp) {
  expect_corrupt(frame(4, 1, 10, 2, 5));  // 5 + 2 + 1 != 10
  expect_corrupt(frame(4, 1, 10, 2, 8));  // 8 + 2 + 1 != 10
  // An inflated handed count would silence the session for good.
  constexpr auto kHuge = std::numeric_limits<std::int64_t>::max();
  expect_corrupt(frame(4, 0, 3, 0, kHuge));
  expect_corrupt(frame(4, 0, 3, kHuge, kHuge));
}

TEST(DecisionSink, LoadRejectsABufferBeyondTwiceRetain) {
  expect_corrupt(frame(4, 9, 9, 0, 0));
}

}  // namespace
}  // namespace evd::runtime
