#include "gnn/gnn_pipeline.hpp"

#include <algorithm>

#include "nn/softmax.hpp"
#include "obs/trace.hpp"
#include "route/route.hpp"
#include "runtime/session_base.hpp"

namespace evd::gnn {

namespace {
EventGnnConfig model_config(const GnnPipelineConfig& config) {
  EventGnnConfig model = config.model;
  model.num_classes = config.num_classes;
  model.seed = config.seed;
  return model;
}
}  // namespace

GnnPipeline::GnnPipeline(GnnPipelineConfig config)
    : config_(config), model_(model_config(config)) {
  model_.freeze();
}

void GnnPipeline::train(std::span<const events::LabelledSample> samples,
                        const core::TrainOptions& options) {
  std::vector<EventGraph> graphs;
  std::vector<Index> labels;
  graphs.reserve(samples.size());
  labels.reserve(samples.size());
  for (const auto& sample : samples) {
    graphs.push_back(build_graph(sample.stream, config_.graph));
    labels.push_back(sample.label);
  }
  GnnFitOptions fit;
  fit.epochs = options.epochs > 0 ? options.epochs : config_.default_epochs;
  fit.lr = options.lr > 0.0f ? options.lr : config_.default_lr;
  fit.shuffle_seed = options.shuffle_seed;
  fit.verbose = options.verbose;
  fit_gnn(model_, graphs, labels, fit);
  model_.freeze();
}

int GnnPipeline::classify(const events::EventStream& stream) {
  const EventGraph graph = build_graph(stream, config_.graph);
  return static_cast<int>(model_.forward(graph, false).argmax());
}

std::vector<core::StageInfo> GnnPipeline::stream_stages() const {
  // Planning estimates for the evd::sched cost models (see core/stages.hpp).
  // Fully event-driven: every stride-surviving event pays graph insertion
  // plus a causal message-pass, so duty is 1/stream_stride for all stages.
  const double duty =
      1.0 / static_cast<double>(std::max<Index>(1, config_.stream_stride));
  const Index hidden = config_.model.hidden;
  const Index layers = config_.model.layers;
  const Index classes = config_.num_classes;
  const Index nbrs = config_.graph.max_neighbors;

  core::StageInfo build;
  build.name = "gnn.graph_update";
  build.duty = duty;
  build.per_op.comparisons = 64;  // grid-hash probes for radius neighbours
  build.per_op.adds = nbrs;       // adjacency splices
  build.per_op.state_bytes_rw = nbrs * 16;  // node + edge-list touches

  core::StageInfo message;
  message.name = "gnn.message_pass";
  message.duty = duty;
  // Causal update: the inserted node and its neighbours re-aggregate at
  // every layer, then the readout head scores the pooled embedding.
  const std::int64_t macs =
      static_cast<std::int64_t>(layers) * (nbrs + 1) * hidden * hidden +
      static_cast<std::int64_t>(hidden) * classes;
  message.per_op.mults = macs;
  message.per_op.adds = macs;
  message.per_op.param_bytes_read = param_count() * 4;
  message.per_op.act_bytes_read =
      static_cast<std::int64_t>(layers) * (nbrs + 1) * hidden * 4;
  message.per_op.act_bytes_written = hidden * 4;

  core::StageInfo readout;
  readout.name = "gnn.readout";
  readout.duty = duty;
  readout.per_op.mults = 2 * static_cast<std::int64_t>(hidden) * classes;
  readout.per_op.comparisons = classes;  // argmax
  readout.per_op.act_bytes_read = 2 * hidden * 4;

  return {build, message, readout};
}

Index GnnPipeline::param_count() const {
  return model_.param_count();
}

Index GnnPipeline::state_bytes() const {
  // Streaming state: grid hash cells + per-node features for each layer.
  const Index per_node_features =
      config_.model.hidden * config_.model.layers * 4;
  const Index nominal_nodes = config_.graph.max_nodes;
  const Index grid_cells =
      (config_.width / static_cast<Index>(config_.graph.radius) + 1) *
      (config_.height / static_cast<Index>(config_.graph.radius) + 1);
  return nominal_nodes * (per_node_features +
                          static_cast<Index>(sizeof(GraphNode))) +
         grid_cells * 16 * static_cast<Index>(sizeof(Index));
}

Index GnnPipeline::input_preparation_bytes() const {
  // Graph structure: nodes + capped adjacency.
  return config_.graph.max_nodes *
         (static_cast<Index>(sizeof(GraphNode)) +
          config_.graph.max_neighbors * static_cast<Index>(sizeof(Index)));
}

double GnnPipeline::input_sparsity(const events::EventStream& probe) {
  // Graph nodes touched vs. the dense pixel grid the CNN would read.
  const EventGraph graph = build_graph(probe, config_.graph);
  const double dense =
      static_cast<double>(probe.width) * static_cast<double>(probe.height);
  return dense > 0.0
             ? 1.0 - std::min(1.0, static_cast<double>(graph.node_count()) /
                                       dense)
             : 0.0;
}

double GnnPipeline::computation_sparsity(const events::EventStream& probe) {
  // Asynchronous per-event updates vs. recomputing the full graph per event
  // (the AEGNN comparison [70]): fraction of full-recompute work avoided.
  const EventGraph graph = build_graph(probe, config_.graph);
  AsyncEventGnn async(model_, /*bidirectional=*/false);
  std::int64_t async_macs = 0;
  std::int64_t full_macs = 0;
  for (Index i = 0; i < graph.node_count(); ++i) {
    const auto stats = async.insert(graph.node(i), graph.neighbors(i));
    async_macs += stats.macs;
    full_macs += async.full_recompute_macs();
  }
  return full_macs > 0 ? 1.0 - static_cast<double>(async_macs) /
                                   static_cast<double>(full_macs)
                       : 0.0;
}

namespace {

class GnnStreamSession : public runtime::SessionBase {
 public:
  GnnStreamSession(GnnPipeline& pipeline, Index width, Index height)
      : runtime::SessionBase(
            {.decision_retain = pipeline.config().decision_retain,
             .paradigm = "gnn"}),
        pipeline_(pipeline),
        builder_(width, height,
                 IncrementalConfig{pipeline.config().graph.time_scale,
                                   pipeline.config().graph.radius,
                                   pipeline.config().graph.max_neighbors, 16}),
        async_(pipeline.model(), /*bidirectional=*/false),
        logits_({pipeline.config().num_classes}),
        probs_({pipeline.config().num_classes}) {
    const Index cap = pipeline.config().stream_max_nodes;
    const Index deg = pipeline.config().graph.max_neighbors;
    builder_.reserve_nodes(cap);
    async_.reserve(cap, deg);
    neighbors_.reserve(static_cast<size_t>(deg));
  }

 private:
  void on_event(const events::Event& event) override {
    // Insert every stride-th event (uniform thinning, same policy the batch
    // path uses to cap graph size).
    if (stride_counter_++ % pipeline_.config().stream_stride != 0) return;
    // Recycle the graph in place when it reaches the cap: builder and async
    // engine keep their storage, so even the restart allocates nothing.
    if (builder_.node_count() >= pipeline_.config().stream_max_nodes) {
      builder_.clear();
      async_.reset();
    }
    // Both spans fire on every insert, so they are sampled (obs::SpanSite);
    // the sites count down in step, so a recorded insert carries both.
    thread_local obs::SpanSite graph_update_site;
    thread_local obs::SpanSite message_pass_site;
    Index id;
    {
      obs::Span span("gnn.graph_update", graph_update_site);
      id = builder_.insert_into(event, neighbors_);
    }
    const GraphNode& node = builder_.node(id);
    obs::Span span("gnn.message_pass", message_pass_site);
    // Routed message-pass discipline: the batch path sweeps the whole graph
    // per event instead of the incremental frontier — bitwise-identical
    // decisions (route.gnn_batch_vs_incremental), O(N) modeled cost.
    // Default runs the built-in frontier path.
    if (execution_path() == route::PathId::GnnBatch) {
      async_.insert_batch(node, neighbors_);
    } else {
      async_.insert(node, neighbors_);
    }

    async_.logits_into(logits_);
    nn::softmax_into(logits_, probs_);
    core::Decision decision;
    decision.t = event.t;  // decision available upon the event itself
    decision.label = static_cast<int>(probs_.argmax());
    decision.confidence = probs_[probs_.argmax()];
    emit(decision);
  }

  void on_advance(TimeUs) override {}  // fully event-driven: nothing to tick

  // Checkpoint payload: the stride phase plus the full builder and async
  // engine state (the session runs causal mode, which AsyncEventGnn can
  // serialize exactly — see async_update.hpp). The inference tensors are
  // per-event scratch.
  bool checkpoint_supported() const override { return true; }

  void on_save(fault::CheckpointWriter& w) const override {
    w.i64(stride_counter_);
    builder_.save(w);
    async_.save(w);
  }

  void on_load(fault::CheckpointReader& r) override {
    stride_counter_ = r.i64();
    builder_.load(r);
    async_.load(r);
    const Index n = builder_.node_count();
    fault::expect_valid(
        n == async_.node_count() && n <= pipeline_.config().stream_max_nodes,
        "GnnStreamSession: builder and engine node counts disagree");
  }

  GnnPipeline& pipeline_;
  IncrementalGraphBuilder builder_;
  AsyncEventGnn async_;
  Index stride_counter_ = 0;
  std::vector<Index> neighbors_;  ///< Reused per-insert neighbour buffer.
  nn::Tensor logits_, probs_;     ///< Reused per-event inference scratch.
};

}  // namespace

std::unique_ptr<core::StreamSession> GnnPipeline::open_session(Index width,
                                                               Index height) {
  runtime::SessionBase::check_geometry("GnnPipeline", width, height,
                                       config_.width, config_.height);
  model_.freeze();
  return std::make_unique<GnnStreamSession>(*this, width, height);
}

}  // namespace evd::gnn
