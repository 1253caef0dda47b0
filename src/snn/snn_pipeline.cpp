#include "snn/snn_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/softmax.hpp"
#include "obs/trace.hpp"
#include "route/route.hpp"
#include "runtime/session_base.hpp"

namespace evd::snn {
namespace {

SpikingNetConfig net_config(const SnnPipelineConfig& config) {
  SpikingNetConfig net;
  net.layer_sizes = {encoded_size(config.width, config.height, config.encoder),
                     config.hidden, config.num_classes};
  net.lif = config.lif;
  net.surrogate = config.surrogate;
  return net;
}

}  // namespace

SnnPipeline::SnnPipeline(SnnPipelineConfig config)
    : config_(config), rng_(config.seed), net_(net_config(config), rng_) {
  net_.freeze();
}

void SnnPipeline::train(std::span<const events::LabelledSample> samples,
                        const core::TrainOptions& options) {
  std::vector<SpikeTrain> inputs;
  std::vector<Index> labels;
  inputs.reserve(samples.size() *
                 static_cast<size_t>(1 + config_.augment_shifts));
  labels.reserve(inputs.capacity());
  Rng aug_rng(config_.seed ^ 0xA06A06ULL);
  for (const auto& sample : samples) {
    inputs.push_back(encode_events(sample.stream, config_.encoder));
    labels.push_back(sample.label);
    for (Index k = 0; k < config_.augment_shifts; ++k) {
      const auto max_shift =
          static_cast<std::uint64_t>(2 * config_.augment_max_shift + 1);
      const Index dx = static_cast<Index>(aug_rng.uniform_int(max_shift)) -
                       config_.augment_max_shift;
      const Index dy = static_cast<Index>(aug_rng.uniform_int(max_shift)) -
                       config_.augment_max_shift;
      events::EventStream shifted;
      shifted.width = sample.stream.width;
      shifted.height = sample.stream.height;
      shifted.events.reserve(sample.stream.events.size());
      for (events::Event e : sample.stream.events) {
        const Index x = e.x + dx;
        const Index y = e.y + dy;
        if (x < 0 || y < 0 || x >= shifted.width || y >= shifted.height) {
          continue;
        }
        e.x = static_cast<std::int16_t>(x);
        e.y = static_cast<std::int16_t>(y);
        shifted.events.push_back(e);
      }
      inputs.push_back(encode_events(shifted, config_.encoder));
      labels.push_back(sample.label);
    }
  }
  SnnFitOptions fit = config_.fit;
  if (options.epochs > 0) fit.epochs = options.epochs;
  if (options.lr > 0.0f) fit.lr = options.lr;
  fit.shuffle_seed = options.shuffle_seed;
  fit.verbose = options.verbose;
  fit_snn(net_, inputs, labels, fit);
  net_.freeze();
}

int SnnPipeline::classify(const events::EventStream& stream) {
  const SpikeTrain train = encode_events(stream, config_.encoder);
  return static_cast<int>(net_.forward(train, false).argmax());
}

std::vector<core::StageInfo> SnnPipeline::stream_stages() const {
  // Planning estimates for the evd::sched cost models (see core/stages.hpp).
  // The clocked stages amortise over a nominal 64 events per timestep — the
  // density the serving benches run at with a 5 ms timestep.
  constexpr std::int64_t kOpsPerStep = 64;
  const Index in = encoded_size(config_.width, config_.height, config_.encoder);
  const Index hidden = config_.hidden;
  const Index classes = config_.num_classes;

  core::StageInfo encode;
  encode.name = "snn.encode";
  encode.per_op.adds = 2;        // spatial pool + polarity bin
  encode.per_op.comparisons = 1; // dedup against the current bin
  encode.per_op.act_bytes_written = 8;  // index-coded spike

  core::StageInfo step;
  step.name = "snn.step";
  step.duty = 1.0 / static_cast<double>(kOpsPerStep);
  // One LIF sweep: input->hidden and hidden->readout matmuls plus leak,
  // threshold compare and reset on every neuron.
  const std::int64_t macs = static_cast<std::int64_t>(in) * hidden +
                            static_cast<std::int64_t>(hidden) * classes;
  step.per_op.mults = macs + hidden + classes;  // + leak multiplies
  step.per_op.adds = macs;
  step.per_op.comparisons = hidden + classes;  // threshold checks
  step.per_op.zero_skippable_mults = static_cast<std::int64_t>(in) * hidden;
  step.per_op.param_bytes_read = param_count() * 4;
  step.per_op.state_bytes_rw = state_bytes() * 2;  // read + write membranes

  core::StageInfo readout;
  readout.name = "snn.readout";
  readout.duty = step.duty;
  readout.per_op.mults = classes;  // softmax-ish normalisation
  readout.per_op.comparisons = classes;  // argmax
  readout.per_op.act_bytes_read = classes * 4;

  return {encode, step, readout};
}

Index SnnPipeline::param_count() const {
  return net_.param_count();
}

Index SnnPipeline::state_bytes() const {
  // Membrane potentials of every neuron (hidden + readout), 4 bytes each.
  Index neurons = 0;
  for (size_t l = 1; l < net_.config().layer_sizes.size(); ++l) {
    neurons += net_.config().layer_sizes[l];
  }
  return neurons * 4;
}

Index SnnPipeline::input_preparation_bytes() const {
  // Spike trains stay index-coded: ~8 bytes per binned event, no dense
  // buffer. Estimate with the encoder geometry at nominal density 2%.
  const Index n = encoded_size(config_.width, config_.height, config_.encoder);
  return static_cast<Index>(0.02 * static_cast<double>(
                                       n * config_.encoder.steps) *
                            8.0);
}

double SnnPipeline::input_sparsity(const events::EventStream& probe) {
  // Spikes consumed vs. the dense (neuron x timestep) input volume.
  const SpikeTrain train = encode_events(probe, config_.encoder);
  return 1.0 - train.density();
}

double SnnPipeline::computation_sparsity(const events::EventStream& probe) {
  // Synaptic additions actually issued vs. the fully-dense equivalent where
  // every input/hidden neuron fires every timestep.
  const SpikeTrain train = encode_events(probe, config_.encoder);
  nn::OpCounter counter;
  {
    nn::ScopedCounter scope(counter);
    (void)net_.forward(train, false);
  }
  const auto& sizes = net_.config().layer_sizes;
  std::int64_t dense_synops = 0;
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    dense_synops += sizes[l] * sizes[l + 1];
  }
  dense_synops *= train.steps;
  return dense_synops > 0
             ? 1.0 - static_cast<double>(counter.adds) /
                         static_cast<double>(dense_synops)
             : 0.0;
}

namespace {

class SnnStreamSession : public runtime::SessionBase {
 public:
  SnnStreamSession(SnnPipeline& pipeline, Index width, Index height)
      : runtime::SessionBase(
            {.decision_retain = pipeline.config().decision_retain,
             .paradigm = "snn"}),
        pipeline_(pipeline),
        width_(width),
        height_(height),
        state_(pipeline.net().make_state()),
        step_end_(pipeline.config().timestep_us),
        seen_(static_cast<size_t>(
            encoded_size(width, height, pipeline.config().encoder))) {
    // Pending can never exceed the dedup'd input size, so reserving it here
    // keeps the per-event path allocation-free.
    pending_.reserve(seen_.size());
  }

 private:
  void on_event(const events::Event& event) override {
    tick_until(event.t);
    // Bin the event into the current timestep's input spike set.
    const auto& enc = pipeline_.config().encoder;
    const Index pw = width_ / enc.spatial_factor;
    const Index ph = height_ / enc.spatial_factor;
    const Index px = event.x / enc.spatial_factor;
    const Index py = event.y / enc.spatial_factor;
    if (px >= pw || py >= ph) return;
    const Index idx = polarity_channel(event.polarity) * pw * ph + py * pw + px;
    if (!seen_[static_cast<size_t>(idx)]) {
      seen_[static_cast<size_t>(idx)] = 1;
      pending_.push_back(idx);
    }
  }

  void on_advance(TimeUs t) override { tick_until(t); }

  // Checkpoint payload: the encoded input size (a session with another
  // encoder refuses the frame), the full neuron state, the timestep clock
  // and the pending input spike set. The dedup bitmap is derived — it is
  // exactly "index appears in pending_" — so on_load rebuilds it instead of
  // serializing the whole (mostly zero) map.
  bool checkpoint_supported() const override { return true; }

  void on_save(fault::CheckpointWriter& w) const override {
    w.i64(static_cast<Index>(seen_.size()));
    w.i64(step_end_);
    w.i64(state_.steps_seen);
    w.i64(state_.step_hidden_spikes);
    w.i64(static_cast<Index>(state_.membrane.size()));
    for (const auto& layer : state_.membrane) w.pod_vector(layer);
    w.pod_vector(state_.readout_sum);
    w.pod_vector(pending_);
  }

  void on_load(fault::CheckpointReader& r) override {
    if (const Index inputs = r.i64();
        inputs != static_cast<Index>(seen_.size())) {
      throw Error(ErrorCode::CheckpointMismatch,
                  "SnnStreamSession: checkpointed encoded input size " +
                      std::to_string(inputs) + ", this session's " +
                      std::to_string(seen_.size()));
    }
    step_end_ = r.i64();
    // The clock starts at one timestep and only ever moves by one, so a
    // frame's clock sits on that grid; one far below it would make the
    // next op step from there.
    const TimeUs timestep = pipeline_.config().timestep_us;
    fault::expect_valid(step_end_ > 0 && step_end_ % timestep == 0,
                        "SnnStreamSession: step clock off the timestep grid");
    state_.steps_seen = r.i64();
    state_.step_hidden_spikes = r.i64();
    if (const Index layers = r.i64();
        layers != static_cast<Index>(state_.membrane.size())) {
      throw Error(ErrorCode::CheckpointMismatch,
                  "SnnStreamSession: checkpointed " + std::to_string(layers) +
                      " membrane layers, net has " +
                      std::to_string(state_.membrane.size()));
    }
    // The net sizes every membrane and the readout; a frame must fill them
    // exactly, since the next step indexes them by the net's widths.
    for (auto& layer : state_.membrane) {
      r.pod_span_exact(std::span<float>(layer));
    }
    r.pod_span_exact(std::span<float>(state_.readout_sum));
    std::fill(seen_.begin(), seen_.end(), 0);
    r.pod_vector(pending_, seen_.size());
    for (const Index i : pending_) {
      fault::expect_valid(i >= 0 && i < static_cast<Index>(seen_.size()),
                          "SnnStreamSession: pending spike index out of range");
      fault::expect_valid(seen_[static_cast<size_t>(i)] == 0,
                          "SnnStreamSession: repeated pending spike index");
      seen_[static_cast<size_t>(i)] = 1;
    }
  }

  void tick_until(TimeUs now) {
    // net().step() allocates internally; that cost is bounded by the clock
    // (one step per timestep_us), not by the event rate.
    while (now >= step_end_) {
      obs::Span span("snn.step");
      // Routed stepping discipline: the event-driven path runs each layer
      // as one spike-driven kernel call instead of the chunked fork-join —
      // bitwise-identical logits (route.snn_clocked_vs_event), different
      // scheduling cost. Default runs the built-in clocked path.
      const bool event_driven =
          execution_path() == route::PathId::SnnEventDriven;
      const nn::Tensor logits = event_driven
                                    ? pipeline_.net().step_event(state_, pending_)
                                    : pipeline_.net().step(state_, pending_);
      for (const Index i : pending_) seen_[static_cast<size_t>(i)] = 0;
      pending_.clear();
      core::Decision decision;
      decision.t = step_end_;
      decision.label = static_cast<int>(logits.argmax());
      const nn::Tensor probs = nn::softmax(logits);
      decision.confidence = probs[probs.argmax()];
      emit(decision);
      step_end_ += pipeline_.config().timestep_us;
    }
  }

  SnnPipeline& pipeline_;
  Index width_, height_;
  SnnState state_;
  TimeUs step_end_;
  std::vector<char> seen_;  ///< Dedup bitmap over the encoded input.
  std::vector<Index> pending_;
};

}  // namespace

std::unique_ptr<core::StreamSession> SnnPipeline::open_session(Index width,
                                                               Index height) {
  runtime::SessionBase::check_geometry("SnnPipeline", width, height,
                                       config_.width, config_.height);
  net_.freeze();
  return std::make_unique<SnnStreamSession>(*this, width, height);
}

}  // namespace evd::snn
