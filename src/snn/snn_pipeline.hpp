// EventPipeline adapter for the spiking paradigm.
//
// Classification: events are binned into a T-step spike train (light
// preparation — no dense frame is materialised) and the surrogate-gradient
// SNN classifies the whole train.
// Streaming: the network steps statefully every `timestep_us` (the paper's
// "timestep granularity, typically milliseconds"), emitting a decision per
// step — far finer-grained than the CNN's frame period, but still clocked.
#pragma once

#include <memory>

#include "core/pipeline.hpp"
#include "snn/encoding.hpp"
#include "snn/snn_model.hpp"

namespace evd::snn {

struct SnnPipelineConfig {
  Index width = 32;
  Index height = 32;
  Index num_classes = 4;
  Index hidden = 96;
  EventEncoderConfig encoder{20, 4, true};  ///< T=20, 4x spatial pooling.
  LifConfig lif{0.9f, 1.0f, false, 0};
  SurrogateKind surrogate = SurrogateKind::FastSigmoid;
  TimeUs timestep_us = 5000;       ///< Streaming timestep (5 ms).
  /// Bound on undrained decisions for streaming sessions (SNNs emit one
  /// decision per timestep, so unbounded storage grows without limit on a
  /// live stream that is not drained).
  Index decision_retain = 8192;
  std::uint64_t seed = 11;
  /// fit.epochs/lr are the pipeline defaults, used when TrainOptions leaves
  /// them <= 0. 15 epochs: the augmented FC-SNN overfits beyond that.
  SnnFitOptions fit{15, 2e-3f, 1, 5.0f, false};
  /// Spatial-shift augmentation copies per training sample (the fully-
  /// connected SNN has no architectural translation invariance, so shifted
  /// copies are its substitute; 0 disables).
  Index augment_shifts = 4;
  Index augment_max_shift = 4;  ///< Max |dx|,|dy| in pixels.
};

class SnnPipeline : public core::EventPipeline {
 public:
  explicit SnnPipeline(SnnPipelineConfig config);

  std::string name() const override { return "SNN"; }
  void train(std::span<const events::LabelledSample> samples,
             const core::TrainOptions& options) override;
  int classify(const events::EventStream& stream) override;
  /// Freezes the model, as construction and train() do; a no-op read
  /// unless net() thawed it, so sessions may be opened concurrently.
  std::unique_ptr<core::StreamSession> open_session(Index width,
                                                    Index height) override;
  std::vector<core::StageInfo> stream_stages() const override;
  Index param_count() const override;
  Index state_bytes() const override;
  Index input_preparation_bytes() const override;
  double input_sparsity(const events::EventStream& probe) override;
  double computation_sparsity(const events::EventStream& probe) override;

  SpikingNet& net() noexcept { return net_; }
  const SnnPipelineConfig& config() const noexcept { return config_; }

 private:
  SnnPipelineConfig config_;
  Rng rng_;
  SpikingNet net_;
};

}  // namespace evd::snn
