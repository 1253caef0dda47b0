// EventPipeline adapter for the dense-frame CNN paradigm.
//
// Classification: one dense frame per recording, fed to the CNN.
// Streaming: events accumulate into a frame buffer that is closed and
// classified every `frame_period_us` — which is exactly why the paper argues
// frame-based CNNs put a lower bound on reaction latency (§V): no decision
// can precede the end of the frame that contains the stimulus.
#pragma once

#include <memory>
#include <optional>

#include "cnn/dense_model.hpp"
#include "cnn/representation.hpp"
#include "core/pipeline.hpp"

namespace evd::cnn {

struct CnnPipelineConfig {
  Index width = 32;
  Index height = 32;
  Index num_classes = 4;
  Index base_filters = 8;
  FrameOptions frame;
  TimeUs frame_period_us = 20000;  ///< Streaming frame period (20 ms).
  /// Streaming session sizing (runtime::SessionBase): max events buffered
  /// per open frame — arrivals beyond this within one period are dropped
  /// (counted in SessionStats.events_dropped) — and the bound on undrained
  /// decisions (runtime::DecisionSink).
  Index stream_window_capacity = 32768;
  Index decision_retain = 8192;
  std::uint64_t seed = 7;
  float default_lr = 1e-3f;   ///< Used when TrainOptions.lr <= 0.
  Index default_epochs = 50;  ///< Used when TrainOptions.epochs <= 0.
};

class CnnPipeline : public core::EventPipeline {
 public:
  explicit CnnPipeline(CnnPipelineConfig config);

  std::string name() const override { return "CNN"; }
  void train(std::span<const events::LabelledSample> samples,
             const core::TrainOptions& options) override;
  int classify(const events::EventStream& stream) override;
  std::unique_ptr<core::StreamSession> open_session(Index width,
                                                    Index height) override;
  std::vector<core::StageInfo> stream_stages() const override;
  Index param_count() const override;
  Index state_bytes() const override;
  Index input_preparation_bytes() const override;
  double input_sparsity(const events::EventStream& probe) override;
  double computation_sparsity(const events::EventStream& probe) override;

  nn::Sequential& model() noexcept { return model_; }
  const CnnPipelineConfig& config() const noexcept { return config_; }

  /// Build this pipeline's input representation for a full recording.
  nn::Tensor frame_for(const events::EventStream& stream) const;

 private:
  CnnPipelineConfig config_;
  Rng rng_;
  nn::Sequential model_;
};

}  // namespace evd::cnn
