// The EventPipeline interface — the common contract all three paradigms
// (dense-frame CNN, SNN, event-graph GNN) implement so the comparison
// harness can measure them on identical workloads.
//
// Two modes of use mirror the paper's two workload classes:
//  * batch classification (train / classify)           -> accuracy axes
//  * streaming, event-driven processing (StreamSession) -> latency axes
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/stages.hpp"
#include "events/dataset.hpp"
#include "events/event.hpp"
#include "nn/counters.hpp"
#include "route/route.hpp"

namespace evd::core {

struct TrainOptions {
  /// Epoch budget; <= 0 means "use the pipeline's own default".
  Index epochs = 10;
  /// Learning rate; <= 0 means "use the pipeline's own default" (each
  /// paradigm trains best at a different rate — the harness trains every
  /// pipeline with its own recipe on the identical split).
  float lr = 0.0f;
  std::uint64_t shuffle_seed = 1;
  bool verbose = false;
};

/// A decision emitted while streaming (event-driven pipelines may emit many;
/// frame-based pipelines emit one per frame period).
struct Decision {
  TimeUs t = 0;        ///< Time at which the decision became available.
  int label = -1;      ///< Predicted class.
  double confidence = 0.0;
};

/// Exact equality — the runtime's determinism oracle compares decision
/// streams bitwise, so confidence is compared as-is, not within a tolerance.
inline bool operator==(const Decision& a, const Decision& b) {
  return a.t == b.t && a.label == b.label && a.confidence == b.confidence;
}
inline bool operator!=(const Decision& a, const Decision& b) {
  return !(a == b);
}

/// Counters a session keeps while streaming. All are totals since open.
struct SessionStats {
  std::int64_t events_fed = 0;
  std::int64_t decisions_emitted = 0;
  /// Decisions compacted away before any drain() took them.
  std::int64_t decisions_dropped = 0;
  /// Events the ingress queue lost to its overflow policy (managed
  /// sessions only; directly-fed sessions never drop).
  std::int64_t events_dropped = 0;

  SessionStats& operator+=(const SessionStats& o) {
    events_fed += o.events_fed;
    decisions_emitted += o.decisions_emitted;
    decisions_dropped += o.decisions_dropped;
    events_dropped += o.events_dropped;
    return *this;
  }
  bool operator==(const SessionStats&) const = default;
};

/// Incremental processing session. feed() pushes events in time order;
/// drain() hands over every decision exactly once. Undrained decisions are
/// bounded (see runtime::DecisionSink): a consumer that drains less often
/// than the bound loses the oldest, counted in stats().decisions_dropped.
/// runtime::SessionBase implements everything below except the paradigm
/// itself; every session derives from it.
class StreamSession {
 public:
  virtual ~StreamSession() = default;
  virtual void feed(const events::Event& event) = 0;
  /// Signal that stream time has advanced to `t` with no further events
  /// before it (lets clocked pipelines tick on silence).
  virtual void advance_to(TimeUs t) = 0;

  /// Move decisions emitted since the last drain() into `out` (appended),
  /// oldest first; returns how many. The session keeps none of them.
  virtual Index drain(std::vector<Decision>& out) = 0;

  virtual SessionStats stats() const = 0;

  /// Checkpoint support (see fault/checkpoint.hpp for the format). A session
  /// that can serialize its full streaming state writes it into `out` and
  /// returns true; one that cannot declines (returns false). Restoring into
  /// a session requires it to have been opened with the same pipeline
  /// configuration (the serialized header is validated); a successful
  /// load_state makes the session bitwise-continue exactly where save_state
  /// left off.
  virtual bool save_state(std::vector<std::uint8_t>& out) const = 0;
  virtual bool load_state(std::span<const std::uint8_t> bytes) = 0;

  /// Execution routing (see route/route.hpp). A routable session reports its
  /// paradigm tag and accepts an ExecutionPath id selecting one of the
  /// proved-equivalent execution variants for that paradigm; every variant
  /// must produce a bitwise-identical decision stream (the route.* oracles
  /// enforce this), so routing is a performance decision, never a semantic
  /// one. set_execution_path declines (returns false) a path the session's
  /// paradigm does not own.
  virtual std::string_view paradigm() const = 0;
  virtual bool set_execution_path(route::PathId path) = 0;
  virtual route::PathId execution_path() const = 0;
};

class EventPipeline {
 public:
  virtual ~EventPipeline() = default;

  virtual std::string name() const = 0;

  /// Fit on labelled samples (identical splits across pipelines).
  virtual void train(std::span<const events::LabelledSample> samples,
                     const TrainOptions& options) = 0;

  /// Classify a complete recording.
  virtual int classify(const events::EventStream& stream) = 0;

  /// Open an event-driven session over a stream geometry.
  virtual std::unique_ptr<StreamSession> open_session(Index width,
                                                      Index height) = 0;

  /// Declared streaming-stage structure for the execution planner (see
  /// core/stages.hpp). The default — no stages — makes the pipeline opaque
  /// to the planner: it is scheduled as a single unfusable unit of unknown
  /// cost. All three built-in paradigms override this.
  virtual std::vector<StageInfo> stream_stages() const { return {}; }

  /// Learnable parameter count.
  virtual Index param_count() const = 0;

  /// Persistent state bytes required at inference time beyond parameters
  /// (membrane potentials, graph buffers, frame accumulators...).
  virtual Index state_bytes() const = 0;

  /// Bytes of input-format data prepared per classification (dense frames,
  /// spike tensors, graph structures) — the Table I "Data preparation" axis.
  virtual Index input_preparation_bytes() const = 0;

  /// Fraction of the dense input volume this paradigm avoids touching on
  /// `probe` (Table I "Data - Sparsity"): 0 for anything that reads a dense
  /// frame, close to 1 for event-driven consumers.
  virtual double input_sparsity(const events::EventStream& probe) = 0;

  /// Fraction of the paradigm's *nominal dense* compute that is skipped or
  /// never issued on `probe` (Table I "Computation - Sparsity").
  virtual double computation_sparsity(const events::EventStream& probe) = 0;
};

}  // namespace evd::core
