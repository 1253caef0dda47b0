// Shared chassis for the three paradigm stream sessions. SessionBase holds
// the paradigm-independent parts:
//
//   * open-time geometry validation (one check_geometry, one message);
//   * a bounded DecisionSink behind the StreamSession drain() contract,
//     plus stats() wired to real counters;
//   * the checkpoint frame header.
//
// Subclasses implement only the paradigm: on_event() and on_advance(). Each
// owns its steady-state scratch and sizes it once, in its constructor; the
// decision sink takes its one growth step on the emit that fills its first
// block. After that the feed path never allocates.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "fault/checkpoint.hpp"
#include "runtime/decision_sink.hpp"

namespace evd::runtime {

struct SessionBaseConfig {
  /// Bound on undrained decisions (see decision_sink.hpp for the rule).
  Index decision_retain = 8192;
  /// Paradigm label: the checkpoint tag, the routing key, and the label
  /// SessionManager::export_metrics sums session counters under.
  const char* paradigm = "unknown";
  /// Upper bound on one serialized checkpoint (save_state throws
  /// Error(CheckpointTooLarge) beyond it). 4 MiB comfortably holds the
  /// largest session state the pipelines produce (GNN at stream_max_nodes).
  std::size_t checkpoint_max_bytes = std::size_t{4} << 20;
};

class SessionBase : public core::StreamSession {
 public:
  /// Throws std::invalid_argument when (width, height) does not match the
  /// geometry the pipeline was configured for. `who` names the pipeline in
  /// the message (e.g. "CnnPipeline").
  static void check_geometry(const std::string& who, Index width, Index height,
                             Index expected_width, Index expected_height);

  void feed(const events::Event& event) final {
    ++events_fed_;
    on_event(event);
  }

  void advance_to(TimeUs t) final { on_advance(t); }

  Index drain(std::vector<core::Decision>& out) final {
    return sink_.drain(out);
  }

  core::SessionStats stats() const final {
    core::SessionStats s;
    s.events_fed = events_fed_;
    s.decisions_emitted = sink_.total();
    s.decisions_dropped = sink_.dropped();
    s.events_dropped = events_dropped_;
    return s;
  }

  /// Checkpoint/restore (core::StreamSession contract). The chassis
  /// serializes the shared state — magic/version header, paradigm label,
  /// counters, undrained decisions — and delegates the paradigm payload to
  /// on_save/on_load. Sessions that do not override checkpoint_supported()
  /// decline (save_state returns false) rather than silently losing their
  /// paradigm state.
  bool save_state(std::vector<std::uint8_t>& out) const final;
  /// Restores into *this* session, whose buffer sizes and sink bound must
  /// match the checkpoint (same pipeline config): header mismatches throw
  /// Error(CheckpointMismatch), truncation Error(CheckpointCorrupt), and a
  /// load that throws leaves the session exactly as it was. Load into a
  /// fresh session or the checkpoint's own continuation, whose drained
  /// decisions then stay drained through the replay.
  bool load_state(std::span<const std::uint8_t> bytes) final;

  /// Execution routing (core::StreamSession contract). The chassis stores
  /// the installed path; set_execution_path accepts Default plus any path
  /// registered for this session's paradigm and declines everything else
  /// without changing state. Subclasses consult execution_path() at their
  /// dispatch points — an installed path changes which proved-equivalent
  /// kernel runs, never what it computes.
  std::string_view paradigm() const final { return paradigm_; }
  bool set_execution_path(route::PathId path) final {
    if (path != route::PathId::Default &&
        !route::path_valid_for(path, paradigm_)) {
      return false;
    }
    path_ = path;
    return true;
  }
  route::PathId execution_path() const final { return path_; }

 protected:
  explicit SessionBase(const SessionBaseConfig& config);

  /// Paradigm hooks. on_event sees every fed event; on_advance sees every
  /// advance_to mark.
  virtual void on_event(const events::Event& event) = 0;
  virtual void on_advance(TimeUs t) = 0;

  /// Checkpoint hooks: override all three together. on_save writes the
  /// paradigm's complete mutable state; on_load restores it into the
  /// buffers the constructor sized, and throws Error(CheckpointMismatch)
  /// when the frame was saved by a session whose buffers differ.
  virtual bool checkpoint_supported() const { return false; }
  virtual void on_save(fault::CheckpointWriter& w) const { (void)w; }
  virtual void on_load(fault::CheckpointReader& r) { (void)r; }

  void emit(const core::Decision& d) { sink_.emit(d); }

  /// Events a paradigm had to discard on its own (the CNN frame window's
  /// overflow); the session keeps the ledger stats() reports.
  void note_events_dropped(std::int64_t n) { events_dropped_ += n; }

 private:
  /// Decodes a save_state frame into this session; may throw part-way,
  /// after replacing the sink and running on_load.
  void read_state(std::span<const std::uint8_t> bytes);

  DecisionSink sink_;
  std::string paradigm_;
  route::PathId path_ = route::PathId::Default;
  std::size_t checkpoint_max_bytes_;
  std::int64_t events_fed_ = 0;
  std::int64_t events_dropped_ = 0;
};

}  // namespace evd::runtime
