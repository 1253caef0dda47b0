// Checkpoint/restore: the byte-level writer/reader contract, the SessionBase
// framing (magic / version / paradigm guards), the paradigm payload guards
// (buffer sizes, window events inside the sensor), and bitwise
// save→load→continue transparency for all three paradigm sessions fed a
// degraded-sensor stream (leak bursts + HDR flicker from the DvsSimulator).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <vector>

#include "cnn/cnn_pipeline.hpp"
#include "events/dvs_simulator.hpp"
#include "events/scene.hpp"
#include "fault/checkpoint.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "runtime/session_base.hpp"
#include "snn/snn_pipeline.hpp"
#include "test_util.hpp"

namespace evd::fault {
namespace {

// ---- writer / reader primitives -------------------------------------------

TEST(CheckpointBytes, PrimitivesRoundTrip) {
  std::vector<std::uint8_t> bytes;
  struct Pod {
    std::int32_t a;
    float b;
  };
  {
    CheckpointWriter w(bytes, 1 << 20);
    w.u32(0xDEADBEEF);
    w.i64(-42);
    w.f64(2.5);
    w.str("paradigm");
    w.pod(Pod{7, 1.5f});
    w.pod_vector(std::vector<std::int64_t>{1, 2, 3});
    const float fixed[4] = {0.5f, 1.5f, 2.5f, 3.5f};
    w.pod_span(std::span<const float>(fixed, 2));
    EXPECT_EQ(w.bytes_written(), bytes.size());
  }
  CheckpointReader r(bytes);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 2.5);
  EXPECT_EQ(r.str(), "paradigm");
  Pod p{};
  r.pod(p);
  EXPECT_EQ(p.a, 7);
  EXPECT_EQ(p.b, 1.5f);
  std::vector<std::int64_t> v;
  r.pod_vector(v);
  EXPECT_EQ(v, (std::vector<std::int64_t>{1, 2, 3}));
  float target[4] = {};
  EXPECT_EQ(r.pod_span_into(std::span<float>(target)), 2);
  EXPECT_EQ(target[0], 0.5f);
  EXPECT_EQ(target[1], 1.5f);
  EXPECT_EQ(target[2], 0.0f);  // trailing elements untouched
  EXPECT_NO_THROW(r.expect_end());
}

TEST(CheckpointBytes, WriterEnforcesTheSizeBound) {
  std::vector<std::uint8_t> bytes;
  CheckpointWriter w(bytes, 12);
  w.i64(1);  // 8 bytes, fits
  try {
    w.i64(2);  // would be 16 > 12
    FAIL() << "size bound must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::CheckpointTooLarge);
  }
}

TEST(CheckpointBytes, ReaderRejectsTruncationAndBadLengths) {
  std::vector<std::uint8_t> bytes;
  {
    CheckpointWriter w(bytes, 1 << 20);
    w.pod_vector(std::vector<std::int64_t>{1, 2, 3, 4});
  }
  // Truncated payload: the length prefix itself now exceeds what is left.
  {
    CheckpointReader r(std::span<const std::uint8_t>(bytes.data(), 16));
    std::vector<std::int64_t> v;
    try {
      r.pod_vector(v);
      FAIL() << "truncated vector must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::CheckpointCorrupt);
    }
  }
  // Negative length prefix.
  {
    std::vector<std::uint8_t> negative;
    CheckpointWriter w(negative, 1 << 20);
    w.i64(-1);
    CheckpointReader r(negative);
    std::vector<std::int64_t> v;
    EXPECT_THROW(r.pod_vector(v), Error);
  }
  // A stored span wider than its fixed target buffer.
  {
    CheckpointReader r(bytes);
    std::int64_t tiny[2] = {};
    try {
      r.pod_span_into(std::span<std::int64_t>(tiny));
      FAIL() << "oversized span must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::CheckpointCorrupt);
    }
  }
  // Trailing garbage fails expect_end.
  {
    CheckpointReader r(bytes);
    EXPECT_THROW(r.expect_end(), Error);
  }
}

// ---- SessionBase framing ---------------------------------------------------

class FramedSession final : public runtime::SessionBase {
 public:
  explicit FramedSession(const char* paradigm = "test",
                         std::size_t max_bytes = std::size_t{4} << 20)
      : runtime::SessionBase(
            runtime::SessionBaseConfig{.decision_retain = 64,
                                       .paradigm = paradigm,
                                       .checkpoint_max_bytes = max_bytes}) {}

  std::vector<TimeUs> seen;

 private:
  void on_event(const events::Event& event) override {
    seen.push_back(event.t);
  }
  void on_advance(TimeUs t) override {
    core::Decision d;
    d.t = t;
    d.label = static_cast<int>(seen.size());
    d.confidence = 1.0;
    emit(d);
  }
  bool checkpoint_supported() const override { return true; }
  void on_save(CheckpointWriter& w) const override { w.pod_vector(seen); }
  void on_load(CheckpointReader& r) override { r.pod_vector(seen); }
};

/// No checkpoint hooks: declines rather than silently losing state.
class UnsupportedSession final : public runtime::SessionBase {
 public:
  UnsupportedSession()
      : runtime::SessionBase(runtime::SessionBaseConfig{
            .decision_retain = 64, .paradigm = "test"}) {}

 private:
  void on_event(const events::Event&) override {}
  void on_advance(TimeUs) override {}
};

events::Event event_at(TimeUs t) {
  events::Event e;
  e.x = 1;
  e.y = 1;
  e.polarity = Polarity::On;
  e.t = t;
  return e;
}

TEST(CheckpointFraming, UnsupportedSessionsDecline) {
  UnsupportedSession session;
  std::vector<std::uint8_t> bytes;
  EXPECT_FALSE(session.save_state(bytes));
  EXPECT_FALSE(session.load_state(bytes));
}

TEST(CheckpointFraming, RoundTripRestoresStateAndCounters) {
  FramedSession a;
  for (TimeUs t = 0; t < 5; ++t) a.feed(event_at(t));
  a.advance_to(10);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(a.save_state(bytes));

  FramedSession b;
  ASSERT_TRUE(b.load_state(bytes));
  EXPECT_EQ(b.seen, a.seen);
  EXPECT_EQ(b.stats().events_fed, 5);
  EXPECT_EQ(b.stats().decisions_emitted, 1);
  EXPECT_EQ(test::drained(b), test::drained(a));
}

TEST(CheckpointFraming, TinyBoundThrowsTooLarge) {
  FramedSession session("test", /*max_bytes=*/16);
  std::vector<std::uint8_t> bytes;
  try {
    session.save_state(bytes);
    FAIL() << "16-byte bound must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::CheckpointTooLarge);
  }
}

TEST(CheckpointFraming, HeaderGuardsRejectForeignBytes) {
  FramedSession source;
  source.feed(event_at(1));
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(source.save_state(bytes));

  {  // Corrupt magic.
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xFF;
    FramedSession target;
    try {
      target.load_state(bad);
      FAIL() << "bad magic must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::CheckpointCorrupt);
    }
  }
  // Version skew: strict equality, no migration. v4 frames still carried
  // the activity estimator.
  for (const std::uint32_t version : {kCheckpointVersion + 1, 4u}) {
    std::vector<std::uint8_t> bad = bytes;
    std::memcpy(bad.data() + 4, &version, sizeof(version));
    FramedSession target;
    try {
      target.load_state(bad);
      FAIL() << "version " << version << " must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::CheckpointMismatch) << version;
    }
  }
  {  // Wrong paradigm.
    FramedSession target("other");
    try {
      target.load_state(bytes);
      FAIL() << "paradigm mismatch must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::CheckpointMismatch);
    }
  }
  {  // Truncated tail.
    std::vector<std::uint8_t> bad = bytes;
    bad.resize(bad.size() - 4);
    FramedSession target;
    try {
      target.load_state(bad);
      FAIL() << "truncation must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::CheckpointCorrupt);
    }
  }
}

// What load_state keeps to undo a failed load must never fail a load that
// is valid: not while the live state is over the save bound, and not
// mid-replay, while the sink is behind what it handed out and refuses to
// save.
TEST(CheckpointFraming, RollbackStateNeverFailsAValidLoad) {
  FramedSession source("test", /*max_bytes=*/256);
  source.feed(event_at(1));
  source.advance_to(2);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(source.save_state(bytes));

  FramedSession oversized("test", /*max_bytes=*/256);
  for (TimeUs t = 0; t < 64; ++t) oversized.feed(event_at(t));
  std::vector<std::uint8_t> unused;
  EXPECT_THROW(oversized.save_state(unused), Error);
  ASSERT_TRUE(oversized.load_state(bytes));
  EXPECT_EQ(oversized.seen, source.seen);

  FramedSession replaying;
  replaying.feed(event_at(1));
  replaying.advance_to(2);
  std::vector<std::uint8_t> early;
  ASSERT_TRUE(replaying.save_state(early));
  replaying.advance_to(3);
  EXPECT_EQ(test::drained(replaying).size(), 2u);
  ASSERT_TRUE(replaying.load_state(early));  // behind its handed-out mark
  EXPECT_THROW(replaying.save_state(unused), Error);
  EXPECT_TRUE(replaying.load_state(early));
}

// ---- paradigm sessions: save → load → continue is bitwise transparent -----

constexpr Index kGeom = 16;
constexpr TimeUs kDuration = 40000;

/// A degraded sensor: moving shape + leak-noise bursts + HDR flicker. The
/// stream checkpoints must survive is deliberately the ugly one.
events::EventStream degraded_stream() {
  events::Scene scene(kGeom, kGeom, 0.1f);
  events::MovingShape shape;
  shape.kind = events::ShapeKind::Square;
  shape.x0 = 4.0;
  shape.y0 = 8.0;
  shape.vx = 150.0;
  shape.radius = 3.0;
  scene.add_shape(shape);

  events::DvsConfig config;
  config.leak_burst_rate_hz = 4000.0;
  config.leak_burst_length = 4;
  config.leak_burst_spacing_us = 150;
  config.flicker_hz = 120.0;
  config.flicker_amplitude = 0.3;
  config.flicker_fraction = 0.25;
  events::DvsSimulator sim(kGeom, kGeom, config, Rng(7));
  return sim.simulate(scene, kDuration);
}

cnn::CnnPipelineConfig cnn_config() {
  cnn::CnnPipelineConfig config;
  config.width = kGeom;
  config.height = kGeom;
  config.num_classes = 2;
  config.base_filters = 2;
  config.frame_period_us = 10000;
  return config;
}

snn::SnnPipelineConfig snn_config() {
  snn::SnnPipelineConfig config;
  config.width = kGeom;
  config.height = kGeom;
  config.num_classes = 2;
  config.hidden = 16;
  config.encoder.spatial_factor = 2;
  config.timestep_us = 5000;
  return config;
}

gnn::GnnPipelineConfig gnn_config() {
  gnn::GnnPipelineConfig config;
  config.width = kGeom;
  config.height = kGeom;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 2;
  return config;
}

/// Feed events [begin, end) of `stream`, advancing every 40th event.
void feed_range(core::StreamSession& s, const events::EventStream& stream,
                size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    s.feed(stream.events[i]);
    if ((i + 1) % 40 == 0) s.advance_to(stream.events[i].t);
  }
}

template <typename Pipeline>
void expect_checkpoint_transparent(Pipeline& pipeline) {
  const events::EventStream stream = degraded_stream();
  ASSERT_GT(stream.events.size(), 20u);
  const size_t split = stream.events.size() / 2;

  // Reference: one uninterrupted session over the full stream.
  auto continuous = pipeline.open_session(kGeom, kGeom);
  feed_range(*continuous, stream, 0, stream.events.size());
  continuous->advance_to(kDuration + 10000);

  // Checkpointed: first half, save, restore into a *fresh* session, second
  // half there.
  auto first_half = pipeline.open_session(kGeom, kGeom);
  feed_range(*first_half, stream, 0, split);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(first_half->save_state(bytes));

  auto restored = pipeline.open_session(kGeom, kGeom);
  ASSERT_TRUE(restored->load_state(bytes));
  feed_range(*restored, stream, split, stream.events.size());
  restored->advance_to(kDuration + 10000);

  const auto want = test::drained(*continuous);
  const auto got = test::drained(*restored);
  ASSERT_GT(want.size(), 0u);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "decision " << i << ": {t=" << got[i].t
                               << ", label=" << got[i].label
                               << ", conf=" << got[i].confidence << "} vs {t="
                               << want[i].t << ", label=" << want[i].label
                               << ", conf=" << want[i].confidence << "}";
  }
  EXPECT_EQ(restored->stats().events_fed, continuous->stats().events_fed);
}

/// `session` loads `bytes`, which must throw Error(`code`).
void expect_load_throws(core::StreamSession& session,
                        const std::vector<std::uint8_t>& bytes,
                        ErrorCode code) {
  try {
    session.load_state(bytes);
    FAIL() << "the load must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

/// `session` failed a load that `twin` never saw, after both were fed
/// `stream` up to `split`. It must still match the twin in its undrained
/// decisions, its counters and every decision of the rest of the stream.
void expect_matches_twin(core::StreamSession& session,
                         core::StreamSession& twin,
                         const events::EventStream& stream, size_t split) {
  EXPECT_EQ(session.stats().events_fed, twin.stats().events_fed);
  EXPECT_EQ(session.stats().decisions_emitted, twin.stats().decisions_emitted);
  EXPECT_EQ(session.stats().decisions_dropped, twin.stats().decisions_dropped);
  EXPECT_EQ(session.stats().events_dropped, twin.stats().events_dropped);
  const auto undrained = test::drained(twin);
  ASSERT_GT(undrained.size(), 0u);
  EXPECT_EQ(test::drained(session), undrained);

  for (auto* s : {&session, &twin}) {
    feed_range(*s, stream, split, stream.events.size());
    s->advance_to(kDuration + 10000);
  }
  const auto want = test::drained(twin);
  ASSERT_GT(want.size(), 0u);
  EXPECT_EQ(test::drained(session), want);
  EXPECT_EQ(session.stats(), twin.stats());
}

/// A load that throws part-way is all or nothing. `session` and its twin
/// see the same first half; `session` then fails to load another session's
/// frame cut by one byte, and must still match the untouched twin.
/// The other session drained further than `session` emitted, so a rollback
/// that merged the sink's handed-out mark would lose undrained decisions.
template <typename Pipeline>
void expect_failed_load_leaves_session_untouched(Pipeline& pipeline) {
  const events::EventStream stream = degraded_stream();
  const size_t split = stream.events.size() / 2;
  auto other = pipeline.open_session(kGeom, kGeom);
  feed_range(*other, stream, 0, stream.events.size());
  test::drained(*other);
  other->advance_to(kDuration);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(other->save_state(bytes));
  bytes.pop_back();

  auto session = pipeline.open_session(kGeom, kGeom);
  auto twin = pipeline.open_session(kGeom, kGeom);
  for (auto* s : {session.get(), twin.get()}) {
    feed_range(*s, stream, 0, split);
    s->advance_to(stream.events[split].t);
  }
  ASSERT_NE(other->stats().decisions_emitted,
            session->stats().decisions_emitted);
  expect_load_throws(*session, bytes, ErrorCode::CheckpointCorrupt);
  expect_matches_twin(*session, *twin, stream, split);
}

TEST(CheckpointParadigms, CnnSaveLoadContinueIsBitwiseTransparent) {
  cnn::CnnPipeline pipeline(cnn_config());
  expect_checkpoint_transparent(pipeline);
}

TEST(CheckpointParadigms, SnnSaveLoadContinueIsBitwiseTransparent) {
  snn::SnnPipeline pipeline(snn_config());
  expect_checkpoint_transparent(pipeline);
}

TEST(CheckpointParadigms, GnnSaveLoadContinueIsBitwiseTransparent) {
  gnn::GnnPipeline pipeline(gnn_config());
  expect_checkpoint_transparent(pipeline);
}

TEST(CheckpointParadigms, CnnFailedLoadLeavesSessionUntouched) {
  cnn::CnnPipeline pipeline(cnn_config());
  expect_failed_load_leaves_session_untouched(pipeline);
}

TEST(CheckpointParadigms, SnnFailedLoadLeavesSessionUntouched) {
  snn::SnnPipeline pipeline(snn_config());
  expect_failed_load_leaves_session_untouched(pipeline);
}

TEST(CheckpointParadigms, GnnFailedLoadLeavesSessionUntouched) {
  gnn::GnnPipeline pipeline(gnn_config());
  expect_failed_load_leaves_session_untouched(pipeline);
}

/// A frame saved by a session of `source`'s config, loaded into a fresh
/// session of `target`'s, is refused as a config mismatch.
template <typename Pipeline>
void expect_frame_refused(Pipeline& source, Pipeline& target) {
  const events::EventStream stream = degraded_stream();
  auto session = source.open_session(kGeom, kGeom);
  feed_range(*session, stream, 0, stream.events.size() / 2);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(session->save_state(bytes));
  auto other = target.open_session(kGeom, kGeom);
  expect_load_throws(*other, bytes, ErrorCode::CheckpointMismatch);
  EXPECT_EQ(other->stats(), core::SessionStats{});
}

// An SNN's dedup bitmap spans its encoded input, which the encoder sizes.
TEST(CheckpointParadigms, SnnFrameFromOtherEncoderIsRefused) {
  snn::SnnPipelineConfig config = snn_config();
  snn::SnnPipeline source(config);
  config.encoder.spatial_factor = 4;
  snn::SnnPipeline target(config);
  expect_frame_refused(source, target);
}

/// Appends `values` to `bytes` as a frame stores an i64.
void append_i64s(std::vector<std::uint8_t>& bytes,
                 std::initializer_list<std::int64_t> values) {
  for (const std::int64_t v : values) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
  }
}

/// An SNN session saves its own frame at a step boundary, so no input spike
/// is pending. The frame then ends with three length-prefixed spans: the
/// readout layer's membrane and readout_sum, num_classes floats each, and
/// the empty pending set. `patch(bytes, membrane_at, readout_at)` rewrites
/// that tail. Loading the patched frame must throw CheckpointCorrupt and
/// leave the session equal to a twin that never saw it.
template <typename Patch>
void expect_patched_snn_tail_is_corrupt(Patch patch) {
  const snn::SnnPipelineConfig config = snn_config();
  snn::SnnPipeline pipeline(config);
  const events::EventStream stream = degraded_stream();
  const size_t split = stream.events.size() / 2;
  const TimeUs boundary =
      (stream.events[split - 1].t / config.timestep_us + 1) *
      config.timestep_us;
  auto session = pipeline.open_session(kGeom, kGeom);
  auto twin = pipeline.open_session(kGeom, kGeom);
  for (auto* s : {session.get(), twin.get()}) {
    feed_range(*s, stream, 0, split);
    s->advance_to(boundary);
  }
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(session->save_state(bytes));

  const auto classes = static_cast<std::int64_t>(config.num_classes);
  const size_t span = 8 + 4 * static_cast<size_t>(classes);
  const size_t readout_at = bytes.size() - 8 - span;
  const size_t membrane_at = readout_at - span;
  std::int64_t stored[3] = {};
  std::memcpy(&stored[0], bytes.data() + membrane_at, 8);
  std::memcpy(&stored[1], bytes.data() + readout_at, 8);
  std::memcpy(&stored[2], bytes.data() + bytes.size() - 8, 8);
  ASSERT_EQ(stored[0], classes);
  ASSERT_EQ(stored[1], classes);
  ASSERT_EQ(stored[2], 0);

  patch(bytes, membrane_at, readout_at);
  expect_load_throws(*session, bytes, ErrorCode::CheckpointCorrupt);
  expect_matches_twin(*session, *twin, stream, split);
}

// Loaded as it stands, an empty readout_sum made the next step write
// num_classes floats past its end.
TEST(CheckpointParadigms, SnnShortReadoutSpanIsCorrupt) {
  expect_patched_snn_tail_is_corrupt(
      [](std::vector<std::uint8_t>& bytes, size_t, size_t readout_at) {
        bytes.resize(readout_at);
        append_i64s(bytes, {0, 0});  // readout_sum, pending: both empty
      });
}

TEST(CheckpointParadigms, SnnMembraneOfTheWrongLengthIsCorrupt) {
  expect_patched_snn_tail_is_corrupt(
      [](std::vector<std::uint8_t>& bytes, size_t membrane_at,
         size_t readout_at) {
        std::int64_t length = 0;
        std::memcpy(&length, bytes.data() + membrane_at, 8);
        ++length;
        std::memcpy(bytes.data() + membrane_at, &length, 8);
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(readout_at),
                     4, 0);
      });
}

// A repeat would bin one input spike twice into the next step.
TEST(CheckpointParadigms, SnnRepeatedPendingIndexIsCorrupt) {
  expect_patched_snn_tail_is_corrupt(
      [](std::vector<std::uint8_t>& bytes, size_t, size_t) {
        bytes.resize(bytes.size() - 8);
        append_i64s(bytes, {2, 3, 3});  // pending = {3, 3}
      });
}

TEST(CheckpointParadigms, CnnFrameFromOtherWindowCapacityIsRefused) {
  cnn::CnnPipelineConfig config = cnn_config();
  cnn::CnnPipeline source(config);
  config.stream_window_capacity /= 2;
  cnn::CnnPipeline target(config);
  expect_frame_refused(source, target);
}

/// A CNN session saves its own frame after the first half of the stream.
/// The frame ends with the open window: frame_start, frame_end, the event
/// count, then the events. `patch(bytes, clock_at, last_at)` alters it
/// (`clock_at` is frame_start's offset, `last_at` the last event's).
/// Loading the patched frame must throw CheckpointCorrupt and leave the
/// session equal to a twin that never saw it.
template <typename Patch>
void expect_patched_cnn_window_is_corrupt(Patch patch) {
  const cnn::CnnPipelineConfig config = cnn_config();
  cnn::CnnPipeline pipeline(config);
  const events::EventStream stream = degraded_stream();
  const size_t split = stream.events.size() / 2;
  auto session = pipeline.open_session(kGeom, kGeom);
  auto twin = pipeline.open_session(kGeom, kGeom);
  for (auto* s : {session.get(), twin.get()}) feed_range(*s, stream, 0, split);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(session->save_state(bytes));

  // The window holds the fed events of the frame the last one falls in.
  const TimeUs frame_start = stream.events[split - 1].t /
                             config.frame_period_us * config.frame_period_us;
  std::int64_t count = 0;
  for (size_t i = 0; i < split; ++i) count += stream.events[i].t >= frame_start;
  const size_t count_at =
      bytes.size() - static_cast<size_t>(count) * sizeof(events::Event) - 8;
  const size_t clock_at = count_at - 16;
  const size_t last_at = bytes.size() - sizeof(events::Event);
  std::int64_t stored[3] = {};
  std::memcpy(stored, bytes.data() + clock_at, sizeof stored);
  ASSERT_EQ(stored[0], frame_start);
  ASSERT_EQ(stored[1], frame_start + config.frame_period_us);
  ASSERT_EQ(stored[2], count);
  events::Event last;
  std::memcpy(&last, bytes.data() + last_at, sizeof last);
  ASSERT_EQ(last, stream.events[split - 1]);

  patch(bytes, clock_at, last_at);
  expect_load_throws(*session, bytes, ErrorCode::CheckpointCorrupt);
  expect_matches_twin(*session, *twin, stream, split);
}

// Loaded as it stands, the event would throw an untyped
// std::invalid_argument at the next frame close.
TEST(CheckpointParadigms, CnnWindowEventOutsideGeometryIsCorrupt) {
  expect_patched_cnn_window_is_corrupt(
      [](std::vector<std::uint8_t>& bytes, size_t, size_t last_at) {
        const std::int16_t x = 40;
        std::memcpy(bytes.data() + last_at + offsetof(events::Event, x), &x,
                    sizeof x);
      });
}

TEST(CheckpointParadigms, CnnFrameEndNotAfterStartIsCorrupt) {
  expect_patched_cnn_window_is_corrupt(
      [](std::vector<std::uint8_t>& bytes, size_t clock_at, size_t) {
        std::memcpy(bytes.data() + clock_at + 8, bytes.data() + clock_at, 8);
      });
}

// The window is reserved, not sized, at open: a stored count above the
// capacity is refused before the window grows, and the session is left as
// it was.
TEST(CheckpointParadigms, CnnWindowCountAboveCapacityIsCorrupt) {
  cnn::CnnPipelineConfig config = cnn_config();
  config.stream_window_capacity = 4;
  cnn::CnnPipeline pipeline(config);
  auto session = pipeline.open_session(kGeom, kGeom);
  auto twin = pipeline.open_session(kGeom, kGeom);
  for (auto* s : {session.get(), twin.get()}) {
    for (TimeUs t = 1; t <= 6; ++t) s->feed(event_at(t));
  }
  ASSERT_EQ(session->stats().events_dropped, 2);
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(session->save_state(bytes));

  // The frame ends with the window's count and its 4 events. Store a 5th
  // event, whole, so only the capacity bound can refuse the frame.
  const size_t count_at = bytes.size() - 4 * sizeof(events::Event) - 8;
  std::int64_t count = 0;
  std::memcpy(&count, bytes.data() + count_at, sizeof count);
  ASSERT_EQ(count, 4);
  count = 5;
  std::memcpy(bytes.data() + count_at, &count, sizeof count);
  const std::vector<std::uint8_t> last(bytes.end() - sizeof(events::Event),
                                       bytes.end());
  bytes.insert(bytes.end(), last.begin(), last.end());
  expect_load_throws(*session, bytes, ErrorCode::CheckpointCorrupt);

  EXPECT_EQ(session->stats(), twin->stats());
  for (auto* s : {session.get(), twin.get()}) {
    s->advance_to(config.frame_period_us);
  }
  const auto want = test::drained(*twin);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(test::drained(*session), want);
}

// A checkpoint carries what the next op needs, not the decisions the
// consumer already took: a session drained as it goes checkpoints to the
// same size after 3 steps as after more than 2*decision_retain of them.
TEST(CheckpointParadigms, DrainedHistoryIsNotCheckpointed) {
  snn::SnnPipelineConfig config = snn_config();
  config.decision_retain = 16;
  snn::SnnPipeline pipeline(config);
  auto session = pipeline.open_session(kGeom, kGeom);
  std::vector<core::Decision> out;
  std::vector<std::uint8_t> bytes;
  const auto size_after = [&](Index steps) {
    for (Index k = static_cast<Index>(out.size()) + 1; k <= steps; ++k) {
      session->advance_to(k * config.timestep_us);
      session->drain(out);
    }
    EXPECT_TRUE(session->save_state(bytes));
    return bytes.size();
  };
  const size_t few = size_after(3);
  const size_t many = size_after(2 * config.decision_retain + 10);
  EXPECT_EQ(out.size(), static_cast<size_t>(2 * config.decision_retain + 10));
  EXPECT_EQ(session->stats().decisions_dropped, 0);
  EXPECT_EQ(many, few);
}

// ---- frames hold field values only ----------------------------------------

/// The stream's events copied field by field into storage whose every byte
/// started as `fill`: padding differs with `fill`, fields do not.
std::vector<events::Event> events_in_storage(const events::EventStream& stream,
                                             std::uint8_t fill) {
  std::vector<events::Event> out(stream.events.size());
  std::memset(static_cast<void*>(out.data()), fill,
              out.size() * sizeof(events::Event));
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].x = stream.events[i].x;
    out[i].y = stream.events[i].y;
    out[i].polarity = stream.events[i].polarity;
    out[i].t = stream.events[i].t;
  }
  return out;
}

/// Writes `fill` over the stack the next call reuses, so the temporaries a
/// session builds there (decisions, graph nodes) start from that byte.
[[gnu::noinline]] void fill_stack(std::uint8_t fill) {
  volatile std::uint8_t scratch[4096];
  for (auto& b : scratch) b = fill;
}

/// Leaves freed heap blocks filled with `fill`, which the allocations that
/// follow (a session's buffers) are likely to reuse.
void fill_heap(std::uint8_t fill) {
  std::vector<std::vector<std::uint8_t>> blocks;
  for (std::size_t size = 64; size <= (std::size_t{1} << 17); size *= 2) {
    for (int k = 0; k < 4; ++k) blocks.emplace_back(size, fill);
  }
}

/// Two sessions fed the same events, one from 0x00-filled storage, stack
/// and heap, the other from 0xAB-filled ones, reach field-equal states, so
/// they must save byte-identical frames. The frames carry events (CNN
/// window), graph nodes (GNN) and undrained decisions (all three).
template <typename Pipeline>
void expect_twins_save_identical_frames(Pipeline& pipeline) {
  const events::EventStream stream = degraded_stream();
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<core::SessionStats> stats;
  for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xAB}}) {
    const std::vector<events::Event> events = events_in_storage(stream, fill);
    fill_heap(fill);
    auto session = pipeline.open_session(kGeom, kGeom);
    for (size_t i = 0; i < events.size(); ++i) {
      fill_stack(fill);
      session->feed(events[i]);
      if ((i + 1) % 40 == 0) {
        fill_stack(fill);
        session->advance_to(events[i].t);
      }
    }
    stats.push_back(session->stats());
    frames.emplace_back();
    ASSERT_TRUE(session->save_state(frames.back()));
  }
  ASSERT_GT(stats[0].decisions_emitted, 0);
  EXPECT_EQ(stats[0], stats[1]);
  ASSERT_EQ(frames[0].size(), frames[1].size());
  for (size_t b = 0; b < frames[0].size(); ++b) {
    ASSERT_EQ(frames[0][b], frames[1][b]) << "frames differ at byte " << b;
  }
}

TEST(CheckpointTwins, CnnFramesHoldFieldValuesOnly) {
  cnn::CnnPipeline pipeline(cnn_config());
  expect_twins_save_identical_frames(pipeline);
}

TEST(CheckpointTwins, SnnFramesHoldFieldValuesOnly) {
  snn::SnnPipeline pipeline(snn_config());
  expect_twins_save_identical_frames(pipeline);
}

TEST(CheckpointTwins, GnnFramesHoldFieldValuesOnly) {
  gnn::GnnPipeline pipeline(gnn_config());
  expect_twins_save_identical_frames(pipeline);
}

}  // namespace
}  // namespace evd::fault
