// Negative decoding sweeps for SNN checkpoint frames. Checkpoint and
// migration frames are untrusted bytes: a corrupted frame must either raise
// a typed evd::Error from load_state, or load into a state the session can
// keep serving. The sweeps cut every prefix and flip every bit of a real
// session frame, saved between two steps.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "snn/snn_pipeline.hpp"
#include "test_util.hpp"

namespace evd::snn {
namespace {

constexpr Index kGeom = 8;
constexpr size_t kSavedEvents = 24;
constexpr size_t kResumedEvents = 8;
constexpr TimeUs kDuration = 20000;

SnnPipelineConfig frame_config() {
  SnnPipelineConfig config;
  config.width = kGeom;
  config.height = kGeom;
  config.num_classes = 2;
  config.hidden = 8;
  config.encoder.spatial_factor = 2;
  config.timestep_us = 5000;
  config.decision_retain = 8;
  return config;
}

class SnnCheckpointFrames : public ::testing::Test {
 protected:
  SnnCheckpointFrames()
      : pipeline_(frame_config()),
        stream_(test::make_stream(kGeom, kGeom,
                                  kSavedEvents + kResumedEvents, 5,
                                  kDuration)) {
    auto session = pipeline_.open_session(kGeom, kGeom);
    for (size_t i = 0; i < kSavedEvents; ++i) session->feed(stream_.events[i]);
    session->save_state(frame_);
  }

  /// Loads `bytes` into a fresh session: a typed evd::Error, or a state
  /// that keeps serving the rest of the stream and its last steps.
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
      session->advance_to(kDuration + frame_config().timestep_us);
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": serving after load threw: " << e.what();
    }
  }

  SnnPipeline pipeline_;
  events::EventStream stream_;
  std::vector<std::uint8_t> frame_;
};

TEST_F(SnnCheckpointFrames, EveryTruncationRaisesCheckpointCorrupt) {
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

TEST_F(SnnCheckpointFrames, EverySingleBitFlipLoadsTypedOrValid) {
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
}  // namespace evd::snn
