// EventPipeline adapter for the event-graph GNN paradigm.
//
// Classification: events are (sub-sampled and) assembled into a
// spatiotemporal radius graph, classified by the EventGnn.
// Streaming: fully event-driven — each incoming event is inserted into the
// evolving graph by the O(1) incremental builder, its features are computed
// asynchronously (causal updates), and a fresh decision is available
// immediately after the event. No frame period, no timestep.
#pragma once

#include <memory>

#include "core/pipeline.hpp"
#include "gnn/async_update.hpp"
#include "gnn/gnn_model.hpp"
#include "gnn/graph_builder.hpp"
#include "gnn/incremental.hpp"

namespace evd::gnn {

struct GnnPipelineConfig {
  Index width = 32;
  Index height = 32;
  Index num_classes = 4;
  EventGnnConfig model;          ///< hidden=16, layers=2 default.
  GraphBuildConfig graph;        ///< Batch construction parameters.
  Index stream_stride = 4;       ///< Streaming: insert every k-th event.
  /// Streaming graph cap: when the incremental graph reaches this many
  /// nodes the session recycles it in place (allocation-free restart).
  /// Deliberately much larger than graph.max_nodes so bounded-length bench
  /// and test streams never hit it and their decision streams are
  /// unchanged; a serving deployment tunes it to its memory budget.
  Index stream_max_nodes = 8192;
  Index decision_retain = 8192;  ///< Bound on undrained decisions.
  std::uint64_t seed = 13;
  float default_lr = 2e-3f;   ///< Used when TrainOptions.lr <= 0.
  Index default_epochs = 30;  ///< Used when TrainOptions.epochs <= 0.
};

class GnnPipeline : public core::EventPipeline {
 public:
  explicit GnnPipeline(GnnPipelineConfig config);

  std::string name() const override { return "GNN"; }
  void train(std::span<const events::LabelledSample> samples,
             const core::TrainOptions& options) override;
  int classify(const events::EventStream& stream) override;
  /// Freezes the model, as construction and train() do; a no-op read
  /// unless model() thawed it, so sessions may be opened concurrently.
  std::unique_ptr<core::StreamSession> open_session(Index width,
                                                    Index height) override;
  std::vector<core::StageInfo> stream_stages() const override;
  Index param_count() const override;
  Index state_bytes() const override;
  Index input_preparation_bytes() const override;
  double input_sparsity(const events::EventStream& probe) override;
  double computation_sparsity(const events::EventStream& probe) override;

  EventGnn& model() noexcept { return model_; }
  const GnnPipelineConfig& config() const noexcept { return config_; }

 private:
  GnnPipelineConfig config_;
  EventGnn model_;
};

}  // namespace evd::gnn
