#include "cnn/cnn_pipeline.hpp"

#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/softmax.hpp"
#include "obs/trace.hpp"
#include "route/route.hpp"
#include "runtime/session_base.hpp"

namespace evd::cnn {

CnnPipeline::CnnPipeline(CnnPipelineConfig config)
    : config_(config),
      rng_(config.seed),
      model_(make_event_cnn(
          CnnModelConfig{representation_channels(config.frame.repr),
                         config.height, config.width, config.num_classes,
                         config.base_filters},
          rng_)) {}

nn::Tensor CnnPipeline::frame_for(const events::EventStream& stream) const {
  TimeUs t0 = 0, t1 = 1;
  if (!stream.events.empty()) {
    t0 = stream.events.front().t;
    t1 = stream.events.back().t + 1;
  }
  return build_frame(stream.events, config_.width, config_.height, t0, t1,
                     config_.frame);
}

void CnnPipeline::train(std::span<const events::LabelledSample> samples,
                        const core::TrainOptions& options) {
  std::vector<nn::Tensor> inputs;
  std::vector<Index> labels;
  inputs.reserve(samples.size());
  labels.reserve(samples.size());
  for (const auto& sample : samples) {
    inputs.push_back(frame_for(sample.stream));
    labels.push_back(sample.label);
  }
  FitOptions fit;
  fit.epochs = options.epochs > 0 ? options.epochs : config_.default_epochs;
  fit.lr = options.lr > 0.0f ? options.lr : config_.default_lr;
  fit.shuffle_seed = options.shuffle_seed;
  fit.verbose = options.verbose;
  fit_classifier(model_, inputs, labels, fit);
}

int CnnPipeline::classify(const events::EventStream& stream) {
  return static_cast<int>(nn::predict(model_, frame_for(stream)));
}

std::vector<core::StageInfo> CnnPipeline::stream_stages() const {
  // Planning estimates for the evd::sched cost models (see core/stages.hpp):
  // analytic per-op work derived from the configured geometry, not measured
  // counters. The frame-rate stages amortise over a nominal 256 events per
  // frame period — the density the serving benches run at.
  constexpr std::int64_t kOpsPerFrame = 256;
  const Index channels = representation_channels(config_.frame.repr);
  const Index hw = config_.height * config_.width;
  const Index bf = config_.base_filters;

  core::StageInfo accumulate;
  accumulate.name = "cnn.accumulate";
  accumulate.per_op.adds = 2;  // window append + surface-map update
  accumulate.per_op.act_bytes_written = sizeof(events::Event);

  core::StageInfo repr;
  repr.name = "cnn.representation_build";
  repr.duty = 1.0 / static_cast<double>(kOpsPerFrame);
  repr.per_op.adds = 4 * kOpsPerFrame + channels * hw;  // binning + clear
  repr.per_op.act_bytes_read =
      kOpsPerFrame * static_cast<std::int64_t>(sizeof(events::Event));
  repr.per_op.act_bytes_written = channels * hw * 4;

  core::StageInfo conv;
  conv.name = "cnn.conv_forward";
  conv.duty = repr.duty;
  // make_event_cnn stem: 3x3 convs at full / half / quarter resolution plus
  // the GAP head's linear.
  const std::int64_t macs =
      static_cast<std::int64_t>(hw) * bf * channels * 9 +
      static_cast<std::int64_t>(hw / 4) * (2 * bf) * bf * 9 +
      static_cast<std::int64_t>(hw / 16) * (4 * bf) * (2 * bf) * 9 +
      static_cast<std::int64_t>(4 * bf) * config_.num_classes;
  conv.per_op.mults = macs;
  conv.per_op.adds = macs;
  conv.per_op.param_bytes_read = param_count() * 4;
  conv.per_op.act_bytes_read = channels * hw * 4;
  conv.per_op.act_bytes_written = (bf * hw + config_.num_classes) * 4;

  return {accumulate, repr, conv};
}

Index CnnPipeline::param_count() const {
  Index n = 0;
  for (auto* p : const_cast<nn::Sequential&>(model_).params()) {
    n += p->value.numel();
  }
  return n;
}

Index CnnPipeline::state_bytes() const {
  // Streaming state: the open frame accumulator.
  return representation_channels(config_.frame.repr) * config_.height *
         config_.width * static_cast<Index>(sizeof(float));
}

Index CnnPipeline::input_preparation_bytes() const {
  // One dense frame must be materialised per classification.
  return representation_channels(config_.frame.repr) * config_.height *
         config_.width * static_cast<Index>(sizeof(float));
}

double CnnPipeline::input_sparsity(const events::EventStream&) {
  // The CNN reads every element of the dense frame regardless of content:
  // input sparsity is not exploited at all.
  return 0.0;
}

double CnnPipeline::computation_sparsity(const events::EventStream& probe) {
  // Fraction of MACs whose activation operand is zero — skippable on sparse
  // hardware, executed on dense hardware.
  nn::OpCounter counter;
  {
    nn::ScopedCounter scope(counter);
    (void)classify(probe);
  }
  const auto macs = counter.macs();
  return macs > 0 ? static_cast<double>(counter.zero_skippable_mults) /
                        static_cast<double>(macs)
                  : 0.0;
}

namespace {

class CnnStreamSession : public runtime::SessionBase {
 public:
  CnnStreamSession(CnnPipeline& pipeline, Index width, Index height)
      : runtime::SessionBase(
            {.decision_retain = pipeline.config().decision_retain,
             .paradigm = "cnn"}),
        pipeline_(pipeline),
        width_(width),
        height_(height),
        window_capacity_(pipeline.config().stream_window_capacity),
        last_on_(static_cast<size_t>(width * height)),
        last_off_(static_cast<size_t>(width * height)),
        frame_end_(pipeline.config().frame_period_us),
        frame_({representation_channels(pipeline.config().frame.repr), height,
                width}) {
    // Every buffer a frame close touches is sized here, from the layer
    // shapes (no forward runs at open), so closing a frame allocates
    // nothing. The window is reserved, not filled: its pages stay untouched
    // until events land in them.
    window_.reserve(static_cast<size_t>(window_capacity_));
    pipeline.model().size_activations(frame_.shape(), acts_, logits_);
    probs_ = nn::Tensor(logits_.shape());
  }

 private:
  void on_event(const events::Event& event) override {
    maybe_close_frames(event.t);
    if (static_cast<Index>(window_.size()) < window_capacity_) {
      window_.push_back(event);
    } else {
      // Saturating window: a frame period denser than the capacity sheds
      // the excess (explicit back-pressure, visible in stats()).
      note_events_dropped(1);
    }
  }

  void on_advance(TimeUs t) override { maybe_close_frames(t); }

  // Checkpoint payload: the window capacity (a session with another
  // capacity refuses the frame), then the open frame window and its clock.
  // The surface maps (last_on_/last_off_) and the dense frame are pure
  // scratch — build_frame_into re-derives both from the window on every
  // close — so they are not serialized.
  bool checkpoint_supported() const override { return true; }

  void on_save(fault::CheckpointWriter& w) const override {
    w.i64(window_capacity_);
    w.i64(frame_start_);
    w.i64(frame_end_);
    w.padded_span(std::span<const events::Event>(window_),
                  &events::Event::polarity, &events::Event::t);
  }

  void on_load(fault::CheckpointReader& r) override {
    if (const Index capacity = r.i64(); capacity != window_capacity_) {
      throw Error(ErrorCode::CheckpointMismatch,
                  "CnnStreamSession: checkpointed window capacity " +
                      std::to_string(capacity) + ", this session's " +
                      std::to_string(window_capacity_));
    }
    frame_start_ = r.i64();
    frame_end_ = r.i64();
    // Bounded before the window grows, so it never reallocates.
    r.pod_vector(window_, static_cast<std::size_t>(window_capacity_));
    // Checked after the reads: load_state's rollback reloads the live
    // state through here, and a live window may already hold an event
    // outside the sensor (fed unvalidated; the next close throws on it), so
    // a failed check must not cut that restore short.
    fault::expect_valid(frame_start_ < frame_end_,
                        "CnnStreamSession: frame start not before its end");
    for (const events::Event& e : window_) {
      fault::expect_valid(e.x >= 0 && e.y >= 0 && e.x < width_ && e.y < height_,
                          "CnnStreamSession: window event outside the sensor");
    }
  }

  void maybe_close_frames(TimeUs now) {
    const TimeUs period = pipeline_.config().frame_period_us;
    while (now >= frame_end_) {
      classify_window();
      frame_start_ = frame_end_;
      frame_end_ += period;
    }
  }

  void classify_window() {
    // A frame with no events still gets classified by a frame-based system
    // (it cannot know the frame is empty before building it); we skip the
    // network call but still mark the decision slot for latency accounting.
    core::Decision decision;
    decision.t = frame_end_;
    if (!window_.empty()) {
      {
        obs::Span span("cnn.representation_build");
        build_frame_into(window_, width_, height_, frame_start_, frame_end_,
                         pipeline_.config().frame, frame_,
                         FrameScratch{last_on_, last_off_});
      }
      obs::Span span("cnn.conv_forward");
      // Routed conv-algo selection: cnn.sparse becomes a thread-local
      // ConvAlgo override for exactly this forward; Default keeps the
      // calling thread's override (none while serving: the shape
      // heuristic). The model is shared across sessions and threads, so
      // its Conv2dConfig is never mutated; layers whose config pins an
      // algo explicitly ignore the override.
      const nn::ScopedConvAlgo algo_scope(
          execution_path() == route::PathId::CnnSparse
              ? nn::ConvAlgo::Sparse
              : nn::thread_conv_algo());
      pipeline_.model().forward_into(frame_, logits_, acts_);
      nn::softmax_into(logits_, probs_);
      const Index best = probs_.argmax();
      decision.label = static_cast<int>(best);
      decision.confidence = probs_[best];
    }
    emit(decision);
    window_.clear();
  }

  CnnPipeline& pipeline_;
  Index width_, height_;
  Index window_capacity_;  ///< Events one frame period may buffer.
  std::vector<events::Event> window_;  ///< Frame accumulator, reserved at open.
  std::vector<TimeUs> last_on_, last_off_;  ///< Surface scratch.
  TimeUs frame_start_ = 0;
  TimeUs frame_end_;
  nn::Tensor frame_;  ///< Reused dense frame, rebuilt in place per close.
  nn::Sequential::Activations acts_;  ///< Forward ping-pong, sized at open.
  nn::Tensor logits_, probs_;
};

}  // namespace

std::unique_ptr<core::StreamSession> CnnPipeline::open_session(Index width,
                                                               Index height) {
  runtime::SessionBase::check_geometry("CnnPipeline", width, height,
                                       config_.width, config_.height);
  return std::make_unique<CnnStreamSession>(*this, width, height);
}

}  // namespace evd::cnn
