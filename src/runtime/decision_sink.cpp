#include "runtime/decision_sink.hpp"

#include <algorithm>

#include "runtime/ring_buffer.hpp"

namespace evd::runtime {

DecisionSink::DecisionSink(Index retain) : retain_(retain < 1 ? 1 : retain) {
  buffer_.reserve(static_cast<size_t>(std::min(retain_ * 2, kFirstBlock)));
}

void DecisionSink::emit(const core::Decision& d) {
  // A replay after a restore re-emits decisions that already left the sink.
  if (total_++ < handed_ + dropped_) return;
  if (static_cast<Index>(buffer_.size()) >= retain_ * 2) {
    // Compact: keep the newest `retain_` decisions. Erasing half at a time
    // keeps compaction amortised O(1) per emit.
    const Index evict = static_cast<Index>(buffer_.size()) - retain_;
    dropped_ += evict;
    buffer_.erase(buffer_.begin(), buffer_.begin() + evict);
  }
  // The one growth step: a full first block is replaced by the bound.
  if (buffer_.size() == buffer_.capacity()) {
    buffer_.reserve(static_cast<size_t>(retain_) * 2);
  }
  buffer_.push_back(d);
}

Index DecisionSink::drain(std::vector<core::Decision>& out) {
  const auto n = static_cast<Index>(buffer_.size());
  out.insert(out.end(), buffer_.begin(), buffer_.end());
  buffer_.clear();  // keeps the storage
  handed_ += n;
  return n;
}

void DecisionSink::save(fault::CheckpointWriter& w) const {
  if (total_ < handed_ + dropped_) {
    throw Error(ErrorCode::CheckpointUnsupported,
                "DecisionSink is replaying decisions already handed out");
  }
  w.i64(retain_);
  w.padded_span(std::span<const core::Decision>(buffer_),
                &core::Decision::label, &core::Decision::confidence);
  w.i64(total_);
  w.i64(dropped_);
  w.i64(handed_);
}

void DecisionSink::load(fault::CheckpointReader& r) {
  const std::int64_t retain = r.i64();
  if (retain != retain_) {
    throw Error(ErrorCode::CheckpointMismatch,
                "DecisionSink retain " + std::to_string(retain_) +
                    " vs checkpointed " + std::to_string(retain));
  }
  // The 2*retain bound is checked against the stored count, before the
  // buffer is sized from it.
  std::vector<core::Decision> buffer;
  r.pod_vector(buffer, static_cast<size_t>(retain_) * 2);
  const std::int64_t total = r.i64();
  const std::int64_t dropped = r.i64();
  const std::int64_t handed = r.i64();
  const auto buffered = static_cast<std::int64_t>(buffer.size());
  // Subtractions only: the counts are untrusted and a sum could overflow.
  // No stream reaches 2^62 decisions; a total near 2^63 would overflow in
  // emit().
  fault::expect_valid(total >= 0 && total <= (std::int64_t{1} << 62) &&
                          dropped >= 0 && handed >= 0 &&
                          total - buffered >= handed &&
                          total - buffered - handed == dropped,
                      "DecisionSink counts are out of range or miss its total");
  total_ = total;
  // A live sink that handed out (or dropped) past the checkpoint keeps its
  // counts: the replay that follows re-emits those decisions, and the
  // buffered ones at or below its mark are already gone.
  if (handed + dropped > handed_ + dropped_) {
    handed_ = handed;
    dropped_ = dropped;
  }
  const std::int64_t gone =
      std::min(handed_ + dropped_ - (total - buffered), buffered);
  if (static_cast<size_t>(buffered - gone) > buffer_.capacity()) {
    buffer_.reserve(static_cast<size_t>(retain_) * 2);
  }
  buffer_.assign(buffer.begin() + gone, buffer.end());
}

}  // namespace evd::runtime
