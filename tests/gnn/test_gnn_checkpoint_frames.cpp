// Negative decoding suite for GNN checkpoint frames. Checkpoint and
// migration frames are untrusted bytes: a corrupted frame must either raise
// a typed evd::Error from load_state, or load into a graph the session can
// keep serving. The hand-built frames pin the structural checks one by one
// (each used to crash the next insert); the sweeps flip every bit and cut
// every prefix of a real session frame.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "gnn/async_update.hpp"
#include "gnn/gnn_pipeline.hpp"
#include "gnn/incremental.hpp"
#include "test_util.hpp"

namespace evd::gnn {
namespace {

constexpr Index kGeom = 8;
constexpr size_t kSavedEvents = 24;
constexpr size_t kResumedEvents = 8;

GnnPipelineConfig frame_config() {
  GnnPipelineConfig config;
  config.width = kGeom;
  config.height = kGeom;
  config.num_classes = 2;
  config.model.hidden = 8;
  config.model.layers = 2;
  config.stream_stride = 1;
  config.stream_max_nodes = 64;
  config.decision_retain = 8;
  return config;
}

EventGnnConfig engine_config() {
  EventGnnConfig config;
  config.hidden = 8;
  config.layers = 2;
  config.num_classes = 2;
  return config;
}

/// A two-node engine frame in AsyncEventGnn's layout: node 1 lists
/// `neighbour`, and layer 0's feature span holds `layer0_len` floats.
std::vector<std::uint8_t> engine_frame(const EventGnn& model, Index neighbour,
                                       Index layer0_len) {
  const GraphNode nodes[] = {{{1, 1, 0.0f}, 1, 0}, {{2, 1, 0.1f}, -1, 1000}};
  const Index degrees[] = {0, 1};
  std::vector<std::uint8_t> bytes;
  fault::CheckpointWriter w(bytes, 1 << 20);
  w.i64(2);
  w.i64(model.conv_count());
  w.pod_span(std::span<const GraphNode>(nodes));
  w.pod_span(std::span<const Index>(degrees));
  w.i64(1);
  w.pod_run(std::span<const Index>(&neighbour, 1));
  for (Index l = 0; l < model.conv_count(); ++l) {
    const Index len = l == 0 ? layer0_len : 2 * model.conv(l).out_features();
    w.pod_vector(std::vector<float>(static_cast<size_t>(len), 0.5f));
  }
  w.pod_vector(std::vector<double>(static_cast<size_t>(model.config().hidden)));
  w.pod_vector(std::vector<float>(static_cast<size_t>(model.config().hidden)));
  return bytes;
}

/// An engine frame of `leaves` isolated nodes plus one hub that lists them
/// all, so its degree is `leaves`.
std::vector<std::uint8_t> star_frame(const EventGnn& model, Index leaves) {
  const Index count = leaves + 1;
  std::vector<GraphNode> nodes(static_cast<size_t>(count),
                               GraphNode{{1, 1, 0.0f}, 1, 0});
  std::vector<Index> degrees(static_cast<size_t>(count), 0);
  degrees.back() = leaves;
  std::vector<Index> hub(static_cast<size_t>(leaves));
  std::iota(hub.begin(), hub.end(), Index{0});
  std::vector<std::uint8_t> bytes;
  fault::CheckpointWriter w(bytes, 1 << 20);
  w.i64(count);
  w.i64(model.conv_count());
  w.pod_span(std::span<const GraphNode>(nodes));
  w.pod_span(std::span<const Index>(degrees));
  w.i64(leaves);
  w.pod_run(std::span<const Index>(hub));
  for (Index l = 0; l < model.conv_count(); ++l) {
    w.pod_vector(std::vector<float>(
        static_cast<size_t>(count * model.conv(l).out_features()), 0.5f));
  }
  w.pod_vector(std::vector<double>(static_cast<size_t>(model.config().hidden)));
  w.pod_vector(std::vector<float>(static_cast<size_t>(model.config().hidden)));
  return bytes;
}

/// A builder frame for an 8x8 grid of radius 3 (3x3 cells of 16 slots) with
/// one node, registered in cell 0's ring as `ring_id`.
std::vector<std::uint8_t> builder_frame(Index ring_id) {
  const IncrementalConfig config;
  std::vector<Index> ring(9 * static_cast<size_t>(config.cell_capacity), -1);
  std::vector<Index> cursor(9, 0);
  std::vector<Index> count(9, 0);
  ring[0] = ring_id;
  cursor[0] = 1;
  count[0] = 1;
  std::vector<std::uint8_t> bytes;
  fault::CheckpointWriter w(bytes, 1 << 20);
  w.i64(3);
  w.i64(3);
  w.i64(config.cell_capacity);
  w.pod_vector(std::vector<GraphNode>{{{1, 1, 0.0f}, 1, 0}});
  w.pod_vector(ring);
  w.pod_vector(cursor);
  w.pod_vector(count);
  return bytes;
}

ErrorCode load_error(auto& target, const std::vector<std::uint8_t>& bytes) {
  fault::CheckpointReader r(bytes);
  try {
    target.load(r);
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "load unexpectedly succeeded";
  return ErrorCode::InvalidArgument;
}

class GnnCheckpointFrames : public ::testing::Test {
 protected:
  GnnCheckpointFrames()
      : pipeline_(frame_config()),
        stream_(test::make_stream(kGeom, kGeom,
                                  kSavedEvents + kResumedEvents, 5, 20000)) {
    auto session = pipeline_.open_session(kGeom, kGeom);
    for (size_t i = 0; i < kSavedEvents; ++i) session->feed(stream_.events[i]);
    session->save_state(frame_);
  }

  /// Loads `bytes` into a fresh session: a typed evd::Error, or a state
  /// that keeps serving the rest of the stream.
  void expect_typed_or_valid(std::span<const std::uint8_t> bytes,
                             const std::string& what) {
    auto session = pipeline_.open_session(kGeom, kGeom);
    try {
      session->load_state(bytes);
    } catch (const Error&) {
      return;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": untyped load error: " << e.what();
      return;
    }
    try {
      for (size_t i = kSavedEvents; i < stream_.events.size(); ++i) {
        session->feed(stream_.events[i]);
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": feed after load threw: " << e.what();
    }
  }

  GnnPipeline pipeline_;
  events::EventStream stream_;
  std::vector<std::uint8_t> frame_;
};

TEST_F(GnnCheckpointFrames, HandBuiltEngineFrameLoads) {
  EventGnn model(engine_config());
  AsyncEventGnn engine(model, /*bidirectional=*/false);
  const auto bytes =
      engine_frame(model, 0, 2 * model.conv(0).out_features());
  fault::CheckpointReader r(bytes);
  engine.load(r);
  r.expect_end();
  EXPECT_EQ(engine.node_count(), 2);
  engine.insert({{3, 1, 0.2f}, 1, 2000}, std::vector<Index>{0, 1});
  EXPECT_EQ(engine.node_count(), 3);
}

TEST_F(GnnCheckpointFrames, ForwardNeighbourIdRaisesCheckpointCorrupt) {
  EventGnn model(engine_config());
  AsyncEventGnn engine(model, false);
  EXPECT_EQ(load_error(engine, engine_frame(model, 100000,
                                            2 * model.conv(0).out_features())),
            ErrorCode::CheckpointCorrupt);
  // A rejected frame leaves an empty engine that keeps working.
  EXPECT_EQ(engine.node_count(), 0);
  engine.insert({{1, 1, 0.0f}, 1, 0}, {});
  EXPECT_EQ(engine.node_count(), 1);
}

TEST_F(GnnCheckpointFrames, ShortFeatureRowRaisesCheckpointCorrupt) {
  EventGnn model(engine_config());
  AsyncEventGnn engine(model, false);
  EXPECT_EQ(load_error(engine, engine_frame(model, 0, 1)),
            ErrorCode::CheckpointCorrupt);
  EXPECT_EQ(engine.node_count(), 0);
}

// A degree past the stride the owner reserved would size the adjacency at
// count x degree slots; load rejects it before sizing anything.
TEST_F(GnnCheckpointFrames, DegreePastTheReservedStrideRaisesCheckpointCorrupt) {
  EventGnn model(engine_config());
  const auto bytes = star_frame(model, 5);

  AsyncEventGnn wide(model, false);
  wide.reserve(8, 5);
  fault::CheckpointReader r(bytes);
  wide.load(r);
  r.expect_end();
  EXPECT_EQ(wide.node_count(), 6);

  AsyncEventGnn narrow(model, false);
  narrow.reserve(8, 4);
  EXPECT_EQ(load_error(narrow, bytes), ErrorCode::CheckpointCorrupt);
  EXPECT_EQ(narrow.node_count(), 0);
  narrow.insert({{1, 1, 0.0f}, 1, 0}, {});
  EXPECT_EQ(narrow.node_count(), 1);
}

TEST_F(GnnCheckpointFrames, RingIdPastTheNodesRaisesCheckpointCorrupt) {
  IncrementalGraphBuilder valid(kGeom, kGeom, IncrementalConfig{});
  const auto bytes = builder_frame(0);
  fault::CheckpointReader r(bytes);
  valid.load(r);
  EXPECT_EQ(valid.insert({1, 1, Polarity::On, 10}).neighbors,
            std::vector<Index>{0});

  IncrementalGraphBuilder builder(kGeom, kGeom, IncrementalConfig{});
  EXPECT_EQ(load_error(builder, builder_frame(9999)),
            ErrorCode::CheckpointCorrupt);
  // A rejected frame leaves the builder cleared.
  EXPECT_EQ(builder.node_count(), 0);
  EXPECT_TRUE(builder.insert({1, 1, Polarity::On, 10}).neighbors.empty());
}

TEST_F(GnnCheckpointFrames, EveryTruncationRaisesCheckpointCorrupt) {
  ASSERT_GT(frame_.size(), 64u);
  for (size_t len = 0; len < frame_.size(); ++len) {
    auto session = pipeline_.open_session(kGeom, kGeom);
    try {
      session->load_state({frame_.data(), len});
      ADD_FAILURE() << "prefix of " << len << " bytes loaded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::CheckpointCorrupt)
          << "prefix of " << len << " bytes: " << error_code_name(e.code());
    }
  }
}

TEST_F(GnnCheckpointFrames, EverySingleBitFlipLoadsTypedOrValid) {
  expect_typed_or_valid(frame_, "unmodified frame");
  std::vector<std::uint8_t> mutated = frame_;
  for (size_t i = 0; i < frame_.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
      expect_typed_or_valid(mutated, "byte " + std::to_string(i) + " bit " +
                                         std::to_string(bit));
      mutated[i] = frame_[i];
    }
  }
}

}  // namespace
}  // namespace evd::gnn
