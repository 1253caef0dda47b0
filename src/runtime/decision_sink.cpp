#include "runtime/decision_sink.hpp"

namespace evd::runtime {

DecisionSink::DecisionSink(Index retain) : retain_(retain < 1 ? 1 : retain) {
  buffer_.reserve(static_cast<size_t>(retain_) * 2);
}

void DecisionSink::emit(const core::Decision& d) {
  if (static_cast<Index>(buffer_.size()) >= retain_ * 2) {
    // Compact: keep the newest `retain_` decisions. Erasing half at a time
    // keeps eviction amortised O(1) per emit and leaves retained() a plain
    // contiguous vector.
    const Index evict = static_cast<Index>(buffer_.size()) - retain_;
    if (drain_cursor_ < evict) {
      dropped_ += evict - drain_cursor_;
      dropped_counter_.add(evict - drain_cursor_);
    }
    evicted_ += evict;
    evicted_counter_.add(evict);
    buffer_.erase(buffer_.begin(), buffer_.begin() + evict);
    drain_cursor_ = drain_cursor_ < evict ? 0 : drain_cursor_ - evict;
  }
  buffer_.push_back(d);
  ++total_;
}

Index DecisionSink::drain(std::vector<core::Decision>& out) {
  const Index n = static_cast<Index>(buffer_.size()) - drain_cursor_;
  out.insert(out.end(), buffer_.begin() + drain_cursor_, buffer_.end());
  drain_cursor_ = static_cast<Index>(buffer_.size());
  return n;
}

void DecisionSink::save(fault::CheckpointWriter& w) const {
  w.i64(retain_);
  w.pod_vector(buffer_);  // Decision is trivially copyable
  w.i64(drain_cursor_);
  w.i64(total_);
  w.i64(dropped_);
  w.i64(evicted_);
}

void DecisionSink::load(fault::CheckpointReader& r) {
  const std::int64_t retain = r.i64();
  if (retain != retain_) {
    throw Error(ErrorCode::CheckpointMismatch,
                "DecisionSink retain " + std::to_string(retain_) +
                    " vs checkpointed " + std::to_string(retain));
  }
  r.pod_vector(buffer_);
  fault::expect_valid(static_cast<Index>(buffer_.size()) <= retain_ * 2,
                      "DecisionSink buffer exceeds its 2*retain bound");
  drain_cursor_ = r.i64();
  fault::expect_valid(
      drain_cursor_ >= 0 && drain_cursor_ <= static_cast<Index>(buffer_.size()),
      "DecisionSink cursor out of range");
  total_ = r.i64();
  dropped_ = r.i64();
  evicted_ = r.i64();
}

}  // namespace evd::runtime
