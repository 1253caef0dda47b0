#include "runtime/session_base.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace evd::runtime {

SessionBase::SessionBase(const SessionBaseConfig& config)
    : sink_(config.decision_retain),
      paradigm_(config.paradigm != nullptr ? config.paradigm : "unknown"),
      checkpoint_max_bytes_(config.checkpoint_max_bytes) {
  if (config.width > 0 && config.height > 0 &&
      config.activity_window_us > 0) {
    act_width_ = config.width;
    act_height_ = config.height;
    act_window_us_ = config.activity_window_us;
    act_touched_.assign(
        static_cast<size_t>((config.width * config.height + 7) / 8), 0);
  }
}

void SessionBase::note_activity(const events::Event& event) {
  // Out-of-geometry events are someone else's problem (the manager's
  // validation guard); the estimator just ignores them.
  if (event.x < 0 || event.x >= act_width_ || event.y < 0 ||
      event.y >= act_height_) {
    return;
  }
  if (act_window_start_ == std::numeric_limits<TimeUs>::min()) {
    act_window_start_ = event.t;  // windows are anchored to the first event
  }
  // Never subtract the (restored, untrusted) window start: it can overflow.
  if (act_window_start_ <= event.t - act_window_us_) {
    const double occupancy =
        static_cast<double>(act_touched_count_) /
        static_cast<double>(act_width_ * act_height_);
    act_ewma_ = 0.5 * act_ewma_ + 0.5 * occupancy;
    // A long silent gap is sparse evidence in itself: decay once more so a
    // stream that went quiet does not keep its old dense estimate.
    if (act_window_start_ <= event.t - 2 * act_window_us_) act_ewma_ *= 0.5;
    std::fill(act_touched_.begin(), act_touched_.end(), std::uint8_t{0});
    act_touched_count_ = 0;
    act_window_start_ = event.t;
  }
  const Index idx = event.y * act_width_ + event.x;
  std::uint8_t& byte = act_touched_[static_cast<size_t>(idx >> 3)];
  const auto mask = static_cast<std::uint8_t>(1u << (idx & 7));
  if ((byte & mask) == 0) {
    byte = static_cast<std::uint8_t>(byte | mask);
    ++act_touched_count_;
  }
}

bool SessionBase::save_state(std::vector<std::uint8_t>& out) const {
  if (!checkpoint_supported()) return false;
  fault::CheckpointWriter w(out, checkpoint_max_bytes_);
  w.u32(fault::kCheckpointMagic);
  w.u32(fault::kCheckpointVersion);
  w.str(paradigm_);
  w.i64(events_fed_);
  w.i64(events_dropped_);
  sink_.save(w);
  // Activity estimator: mutable chassis state, so restore+replay re-derives
  // the exact estimate a never-faulted run would hold (replayed feeds pass
  // through note_activity again, starting from this snapshot).
  w.u8(act_touched_.empty() ? 0 : 1);
  if (!act_touched_.empty()) {
    w.i64(act_window_start_);
    w.f64(act_ewma_);
    w.i64(act_touched_count_);
    w.pod_vector(act_touched_);
  }
  on_save(w);
  return true;
}

bool SessionBase::load_state(std::span<const std::uint8_t> bytes) {
  if (!checkpoint_supported()) return false;
  // All or nothing: the sink and on_load change the session before
  // expect_end() knows the frame is whole, so a frame that throws part-way
  // (cut short, a mismatched or out-of-range field) is undone from a copy
  // of the sink and a snapshot of the paradigm state. The counters and the
  // activity estimator commit only after expect_end(). The sink is copied,
  // not saved and reloaded: its load keeps the larger handed-out mark of
  // the live and loaded counts, and its save refuses mid-replay. The
  // snapshot is unbounded, so a live state over checkpoint_max_bytes
  // cannot fail a valid load.
  const DecisionSink sink = sink_;
  std::vector<std::uint8_t> paradigm;
  {
    fault::CheckpointWriter w(paradigm,
                              std::numeric_limits<std::size_t>::max());
    on_save(w);
  }
  try {
    read_state(bytes);
  } catch (...) {
    sink_ = sink;
    fault::CheckpointReader r(paradigm);
    on_load(r);
    throw;
  }
  return true;
}

void SessionBase::read_state(std::span<const std::uint8_t> bytes) {
  fault::CheckpointReader r(bytes);
  fault::expect_valid(r.u32() == fault::kCheckpointMagic,
                      "bad checkpoint magic");
  if (const auto version = r.u32(); version != fault::kCheckpointVersion) {
    throw Error(ErrorCode::CheckpointMismatch,
                "checkpoint version " + std::to_string(version) +
                    ", this build writes " +
                    std::to_string(fault::kCheckpointVersion));
  }
  if (const std::string paradigm = r.str(); paradigm != paradigm_) {
    throw Error(ErrorCode::CheckpointMismatch,
                "checkpoint from a '" + paradigm + "' session, this is '" +
                    paradigm_ + "'");
  }
  const std::int64_t events_fed = r.i64();
  const std::int64_t events_dropped = r.i64();
  sink_.load(r);
  const bool ckpt_activity = r.u8() != 0;
  if (ckpt_activity != !act_touched_.empty()) {
    throw Error(ErrorCode::CheckpointMismatch,
                "checkpoint activity estimator state does not match this "
                "session's configuration");
  }
  TimeUs act_window_start = act_window_start_;
  double act_ewma = act_ewma_;
  std::int64_t act_touched_count = act_touched_count_;
  std::vector<std::uint8_t> act_touched;
  if (ckpt_activity) {
    act_window_start = r.i64();
    act_ewma = r.f64();
    act_touched_count = r.i64();
    r.pod_vector(act_touched);
    if (act_touched.size() != act_touched_.size()) {
      throw Error(ErrorCode::CheckpointMismatch,
                  "activity bitmap " + std::to_string(act_touched.size()) +
                      " bytes vs this session's " +
                      std::to_string(act_touched_.size()));
    }
  }
  on_load(r);
  r.expect_end();
  events_fed_ = events_fed;
  events_dropped_ = events_dropped;
  if (ckpt_activity) {
    act_window_start_ = act_window_start;
    act_ewma_ = act_ewma;
    act_touched_count_ = static_cast<Index>(act_touched_count);
    act_touched_ = std::move(act_touched);
  }
}

void SessionBase::check_geometry(const std::string& who, Index width,
                                 Index height, Index expected_width,
                                 Index expected_height) {
  if (width != expected_width || height != expected_height) {
    throw std::invalid_argument(who + "::open_session: geometry mismatch (got " +
                                std::to_string(width) + "x" +
                                std::to_string(height) + ", configured " +
                                std::to_string(expected_width) + "x" +
                                std::to_string(expected_height) + ")");
  }
}

}  // namespace evd::runtime
