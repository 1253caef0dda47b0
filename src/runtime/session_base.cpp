#include "runtime/session_base.hpp"

#include <limits>
#include <stdexcept>

namespace evd::runtime {

SessionBase::SessionBase(const SessionBaseConfig& config)
    : sink_(config.decision_retain),
      paradigm_(config.paradigm != nullptr ? config.paradigm : "unknown"),
      checkpoint_max_bytes_(config.checkpoint_max_bytes) {}

bool SessionBase::save_state(std::vector<std::uint8_t>& out) const {
  if (!checkpoint_supported()) return false;
  fault::CheckpointWriter w(out, checkpoint_max_bytes_);
  w.u32(fault::kCheckpointMagic);
  w.u32(fault::kCheckpointVersion);
  w.str(paradigm_);
  w.i64(events_fed_);
  w.i64(events_dropped_);
  sink_.save(w);
  on_save(w);
  return true;
}

bool SessionBase::load_state(std::span<const std::uint8_t> bytes) {
  if (!checkpoint_supported()) return false;
  // All or nothing: the sink and on_load change the session before
  // expect_end() knows the frame is whole, so a frame that throws part-way
  // (cut short, a mismatched or out-of-range field) is undone from a copy
  // of the sink and a snapshot of the paradigm state. The counters commit
  // only after expect_end(). The sink is copied, not saved and reloaded:
  // its load keeps the larger handed-out mark of the live and loaded
  // counts, and its save refuses mid-replay. The snapshot is unbounded, so
  // a live state over checkpoint_max_bytes cannot fail a valid load.
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
  on_load(r);
  r.expect_end();
  events_fed_ = events_fed;
  events_dropped_ = events_dropped;
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
